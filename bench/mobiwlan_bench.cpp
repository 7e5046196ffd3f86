// mobiwlan-bench — unified driver for the benches ported onto src/runtime/.
//
//   mobiwlan-bench --list                 enumerate benches and perf cases
//   mobiwlan-bench                        run every registered bench
//   mobiwlan-bench --filter fig9          run benches whose name contains it
//   mobiwlan-bench --jobs 8 --seed 42     worker count / master seed
//   mobiwlan-bench --json out.json        write the structured run report
//   mobiwlan-bench --no-job-timing        omit per-job arrays from the JSON
//
//   mobiwlan-bench --suite NAME           run one suite and write its report
//     NAME is a gated suite — fidelity, fault, trace, campus, loc — checked
//     against ci/NAME_baseline.json, or the timing run perf (the hot-path
//     cases, BENCH_channel.json) checked against ci/perf_baseline.json.
//     Suite flags:
//     --check                             gate the run against the baseline
//     --check-only PATH                   re-check an existing report, no
//                                         re-run (gated suites)
//     --out PATH                          report path (default
//                                         BENCH_NAME.json)
//     --baseline PATH                     baseline path
//     --perf-min-time S                   seconds per timing measurement
//                                         (perf)
//     --campus-sessions N                 campus large mode: one 4-shard run
//                                         at N sessions (conservation + RSS
//                                         evidence, no baseline gate)
//     --campus-rss-budget-mb MB           large mode: fail above this peak
//                                         RSS
//   A suite given a flag it does not take, or an unknown suite, is a usage
//   error (exit 2).
//
// Determinism contract: for a fixed --seed, the printed tables and every
// non-"timing" byte of the JSON are identical for --jobs 1 and --jobs N.
// Gated-suite reports follow the same contract outside lines starting
// `  "timing`. Perf cases are timing-based and therefore live entirely
// behind --suite perf; they never contribute to the deterministic JSON.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/experiment.hpp"
#include "runtime/report.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"

namespace {

using mobiwlan::benchsuite::BenchDef;
using mobiwlan::benchsuite::GatedSuite;
using mobiwlan::benchsuite::PerfCaseDef;
using mobiwlan::benchsuite::SuiteOptions;
using mobiwlan::benchsuite::gated_suites;
using mobiwlan::benchsuite::perf_registry;
using mobiwlan::benchsuite::registry;
namespace runtime = mobiwlan::runtime;

void print_usage() {
  std::printf(
      "usage: mobiwlan-bench [--list] [--filter SUBSTR] [--jobs N]\n"
      "                      [--seed S] [--json PATH] [--no-job-timing]\n"
      "       mobiwlan-bench --suite NAME [--check] [--check-only PATH]\n"
      "                      [--out PATH] [--baseline PATH] [--jobs N]\n"
      "                      [--seed S] [--perf-min-time SECONDS]\n"
      "                      [--campus-sessions N] [--campus-rss-budget-mb MB]"
      "\n"
      "       NAME: fidelity fault trace campus loc perf\n");
}

const GatedSuite* find_gated_suite(const std::string& name) {
  for (const GatedSuite& suite : gated_suites())
    if (suite.name == name) return &suite;
  return nullptr;
}

/// The gated suites plus the timing run, perf.
bool is_suite(const std::string& name) {
  return find_gated_suite(name) || name == "perf";
}

/// Whether the bench-registry mode (no `--suite`) takes `flag`.
bool registry_takes(const std::string& flag) {
  return flag == "--list" || flag == "--filter" || flag == "--json" ||
         flag == "--no-job-timing" || flag == "--jobs" || flag == "--seed";
}

/// Whether `--suite NAME` takes `flag`. The registry-only flags (--list,
/// --filter, --json, --no-job-timing) belong to no suite.
bool suite_takes(const std::string& name, const std::string& flag) {
  if (flag == "--suite" || flag == "--check" || flag == "--out" ||
      flag == "--baseline")
    return true;
  if (flag == "--check-only") return find_gated_suite(name) != nullptr;
  if (flag == "--jobs" || flag == "--seed") return name != "perf";
  if (flag == "--perf-min-time") return name == "perf";
  if (flag == "--campus-sessions" || flag == "--campus-rss-budget-mb")
    return name == "campus";
  return false;
}

struct Options {
  bool list = false;
  bool job_timing = true;
  std::string filter;
  std::string json_path;
  std::string suite;  ///< empty: registry mode
  SuiteOptions run;   ///< jobs and seed apply to registry mode too
  std::set<std::string> given;  ///< every flag on the command line
};

bool parse_args(int argc, char** argv, Options& opt) {
  opt.run.seed = runtime::kMasterSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    opt.given.insert(arg);
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mobiwlan-bench: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--no-job-timing") {
      opt.job_timing = false;
    } else if (arg == "--check") {
      opt.run.check = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else if (arg == "--suite" || arg == "--check-only" || arg == "--out" ||
               arg == "--baseline" || arg == "--filter" || arg == "--json" ||
               arg == "--jobs" || arg == "--seed" || arg == "--perf-min-time" ||
               arg == "--campus-sessions" || arg == "--campus-rss-budget-mb") {
      const char* v = value(arg.c_str());
      if (!v) return false;
      if (arg == "--suite") opt.suite = v;
      if (arg == "--check-only") opt.run.check_only = v;
      if (arg == "--out") opt.run.out = v;
      if (arg == "--baseline") opt.run.baseline = v;
      if (arg == "--filter") opt.filter = v;
      if (arg == "--json") opt.json_path = v;
      if (arg == "--jobs")
        opt.run.jobs = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
      if (arg == "--seed") opt.run.seed = std::strtoull(v, nullptr, 10);
      if (arg == "--perf-min-time") opt.run.min_time_s = std::strtod(v, nullptr);
      if (arg == "--campus-sessions")
        opt.run.campus_sessions = std::strtoull(v, nullptr, 10);
      if (arg == "--campus-rss-budget-mb")
        opt.run.campus_rss_budget_mb = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "mobiwlan-bench: unknown flag %s\n", arg.c_str());
      print_usage();
      return false;
    }
  }

  if (opt.suite.empty()) {
    for (const std::string& flag : opt.given) {
      if (registry_takes(flag)) continue;
      std::fprintf(stderr, "mobiwlan-bench: %s needs --suite NAME\n",
                   flag.c_str());
      return false;
    }
    return true;
  }
  if (!is_suite(opt.suite)) {
    std::fprintf(stderr, "mobiwlan-bench: unknown suite '%s'\n",
                 opt.suite.c_str());
    print_usage();
    return false;
  }
  for (const std::string& flag : opt.given) {
    if (suite_takes(opt.suite, flag)) continue;
    std::fprintf(stderr, "mobiwlan-bench: --suite %s does not take %s\n",
                 opt.suite.c_str(), flag.c_str());
    return false;
  }
  // Large-campus mode has no baseline gate; the budget needs the mode.
  if (opt.run.campus_sessions &&
      (opt.run.check || !opt.run.check_only.empty() ||
       !opt.run.baseline.empty())) {
    std::fprintf(stderr, "mobiwlan-bench: --campus-sessions runs no gate; "
                         "drop --check, --check-only and --baseline\n");
    return false;
  }
  if (opt.given.count("--campus-rss-budget-mb") && !opt.run.campus_sessions) {
    std::fprintf(stderr,
                 "mobiwlan-bench: --campus-rss-budget-mb needs "
                 "--campus-sessions\n");
    return false;
  }
  return true;
}

/// `--suite NAME`: fills the suite's default paths and runs it.
int run_suite(const Options& opt) {
  SuiteOptions run = opt.run;
  const std::string& name = opt.suite;
  if (run.out.empty())
    run.out = name == "perf" ? "BENCH_channel.json" : "BENCH_" + name + ".json";
  if (run.baseline.empty())
    run.baseline = name == "perf" ? "ci/perf_baseline.json"
                                  : "ci/" + name + "_baseline.json";
  if (name == "perf") return mobiwlan::benchsuite::run_perf(run);
  if (run.campus_sessions) return mobiwlan::benchsuite::run_campus_large(run);
  return mobiwlan::benchsuite::run_gated_suite(*find_gated_suite(name), run);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (opt.list) {
    for (const BenchDef& def : registry())
      std::printf("%-10s %s\n", def.name.c_str(), def.description.c_str());
    for (const PerfCaseDef& def : perf_registry())
      std::printf("%-10s [perf] %s\n", def.name.c_str(),
                  def.description.c_str());
    return 0;
  }

  if (!opt.suite.empty()) return run_suite(opt);

  std::vector<const BenchDef*> selected;
  for (const BenchDef& def : registry())
    if (def.name.find(opt.filter) != std::string::npos)
      selected.push_back(&def);
  if (selected.empty()) {
    std::fprintf(stderr, "mobiwlan-bench: no bench matches --filter '%s'\n",
                 opt.filter.c_str());
    return 1;
  }

  std::size_t jobs = opt.run.jobs;
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw ? hw : 1;
  }

  runtime::ThreadPool pool(jobs);
  runtime::RunReport run;
  run.master_seed = opt.run.seed;
  run.workers = pool.size();

  const auto run_start = std::chrono::steady_clock::now();
  for (const BenchDef* def : selected) {
    runtime::BenchReport report;
    report.name = def->name;
    report.description = def->description;
    runtime::Experiment exp(pool, opt.run.seed, &report);
    const auto start = std::chrono::steady_clock::now();
    def->run(exp, report);
    report.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::fputs(report.text.c_str(), stdout);
    std::printf("\n[%s: %zu jobs on %zu workers, %.2fs wall, %.0f%% "
                "utilization, mean queue wait %.1f ms]\n",
                report.name.c_str(), report.jobs.size(), report.workers,
                report.wall_s, 100.0 * report.worker_utilization(),
                1e3 * report.mean_queue_wait_s());
    run.benches.push_back(std::move(report));
  }
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             run_start)
                   .count();

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    out << run.to_json(opt.job_timing);
    std::printf("\nwrote %s (%zu benches)\n", opt.json_path.c_str(),
                run.benches.size());
  }
  return 0;
}
