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
//     against ci/NAME_baseline.json, or a timing run — perf (the hot-path
//     cases, BENCH_channel.json) or scale (the AP-scale bench) — checked
//     against ci/perf_baseline.json. Suite flags:
//     --check                             gate the run against the baseline
//     --check-only PATH                   re-check an existing report, no
//                                         re-run (gated suites)
//     --out PATH                          report path (default
//                                         BENCH_NAME.json)
//     --baseline PATH                     baseline path
//     --perf-min-time S                   seconds per timing measurement
//                                         (perf, scale)
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
#include "util/alloc_count.hpp"
#include "util/flatjson.hpp"
#include "util/simd.hpp"

namespace {

using mobiwlan::benchsuite::BenchDef;
using mobiwlan::benchsuite::GatedSuite;
using mobiwlan::benchsuite::PerfCaseDef;
using mobiwlan::benchsuite::PerfResult;
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
      "       NAME: fidelity fault trace campus loc perf scale\n");
}

const GatedSuite* find_gated_suite(const std::string& name) {
  for (const GatedSuite& suite : gated_suites())
    if (suite.name == name) return &suite;
  return nullptr;
}

/// The gated suites plus the two timing runs, perf and scale.
bool is_suite(const std::string& name) {
  return find_gated_suite(name) || name == "perf" || name == "scale";
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
  if (flag == "--perf-min-time") return name == "perf" || name == "scale";
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

using mobiwlan::load_flat_json;  // util/flatjson.hpp

/// Runs the perf cases, writes the flat BENCH report (with pre-PR baseline
/// numbers and speedups folded in when the baseline file provides them), and
/// optionally gates against the baseline's gate_* values.
int run_perf(const SuiteOptions& opt) {
  const auto baseline = load_flat_json(opt.baseline);
  if (!baseline.empty())
    std::printf("perf: baseline %s (%zu keys)\n", opt.baseline.c_str(),
                baseline.size());
  else
    std::printf("perf: no baseline at %s (measuring only)\n",
                opt.baseline.c_str());
  if (!mobiwlan::alloc_hook_active())
    std::printf("perf: warning: alloc hook not linked, allocs/op will read 0\n");

  std::vector<PerfResult> results;
  for (const PerfCaseDef& def : perf_registry()) {
    PerfResult r = def.run(opt.min_time_s);
    std::printf("  %-20s %12.1f ns/op  %12.0f ops/s  %6.2f allocs/op\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.allocs_per_op);
    results.push_back(std::move(r));
  }

  std::ofstream out(opt.out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n",
                 opt.out.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"channel_perf\",\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "  \"min_time_s\": %g,\n", opt.min_time_s);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"alloc_hook_active\": %d,\n",
                mobiwlan::alloc_hook_active() ? 1 : 0);
  out << buf;
  for (const PerfResult& r : results) {
    std::snprintf(buf, sizeof buf, "  \"%s_ns\": %.1f,\n", r.name.c_str(),
                  r.ns_per_op);
    out << buf;
    std::snprintf(buf, sizeof buf, "  \"%s_ops_per_sec\": %.0f,\n",
                  r.name.c_str(), r.ops_per_sec);
    out << buf;
    std::snprintf(buf, sizeof buf, "  \"%s_allocs\": %.2f,\n", r.name.c_str(),
                  r.allocs_per_op);
    out << buf;
    const auto pre_ns = baseline.find("pre_pr_" + r.name + "_ns");
    if (pre_ns != baseline.end()) {
      std::snprintf(buf, sizeof buf, "  \"pre_pr_%s_ns\": %.1f,\n",
                    r.name.c_str(), pre_ns->second);
      out << buf;
      const auto pre_allocs = baseline.find("pre_pr_" + r.name + "_allocs");
      if (pre_allocs != baseline.end()) {
        std::snprintf(buf, sizeof buf, "  \"pre_pr_%s_allocs\": %.2f,\n",
                      r.name.c_str(), pre_allocs->second);
        out << buf;
      }
      std::snprintf(buf, sizeof buf, "  \"%s_speedup_vs_pre_pr\": %.2f,\n",
                    r.name.c_str(), pre_ns->second / r.ns_per_op);
      out << buf;
    }
  }
  // The beamscan's active-tier speedup over its own scalar tier, measured
  // back to back on this host (ci/perf_gate.sh gates it on AVX2+ hosts).
  const auto ns_of = [&](const char* name) {
    for (const PerfResult& r : results)
      if (r.name == name) return r.ns_per_op;
    return 0.0;
  };
  const double aoa_ns = ns_of("aoa_sweep");
  const double aoa_scalar_ns = ns_of("aoa_sweep_scalar");
  if (aoa_ns > 0.0 && aoa_scalar_ns > 0.0) {
    std::snprintf(buf, sizeof buf, "  \"timing_aoa_tier_speedup\": %.2f,\n",
                  aoa_scalar_ns / aoa_ns);
    out << buf;
  }
  // Host-capability and tier provenance, quarantined on timing_* keys (the
  // same convention the determinism diffs filter on), so perf baselines are
  // comparable across hosts.
  std::snprintf(buf, sizeof buf, "  \"timing_host_avx2\": %d,\n",
                mobiwlan::simd::avx2fma_supported() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_host_avx512\": %d,\n",
                mobiwlan::simd::avx512_supported() ? 1 : 0);
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_active_simd_tier\": %d,\n",
                static_cast<int>(mobiwlan::simd::active_tier()));
  out << buf;
  std::snprintf(buf, sizeof buf, "  \"timing_active_precision_fp32\": %d,\n",
                mobiwlan::simd::active_precision() ==
                        mobiwlan::simd::Precision::kFloat32
                    ? 1
                    : 0);
  out << buf;
  out << "  \"end\": 0\n}\n";
  out.close();
  std::printf("wrote %s (%zu cases)\n", opt.out.c_str(), results.size());

  if (!opt.check) return 0;

  // Gate: each case must stay within (1 + tolerance) of its committed
  // gate_*_ns and must not allocate more than gate_*_allocs (+0.5 slack for
  // amortized one-off growth). Missing gate keys are reported, not fatal,
  // so new cases can land before the baseline is refreshed.
  const auto tol_it = baseline.find("tolerance");
  const double tol = tol_it != baseline.end() ? tol_it->second : 0.25;
  bool ok = true;
  for (const PerfResult& r : results) {
    const auto gate_ns = baseline.find("gate_" + r.name + "_ns");
    if (gate_ns == baseline.end()) {
      std::printf("perf-check: %-20s no gate_%s_ns in baseline, skipped\n",
                  r.name.c_str(), r.name.c_str());
      continue;
    }
    const double limit = gate_ns->second * (1.0 + tol);
    const bool time_ok = r.ns_per_op <= limit;
    bool allocs_ok = true;
    const auto gate_allocs = baseline.find("gate_" + r.name + "_allocs");
    if (gate_allocs != baseline.end() && mobiwlan::alloc_hook_active())
      allocs_ok = r.allocs_per_op <= gate_allocs->second + 0.5;
    std::printf("perf-check: %-20s %s  (%.1f ns/op vs limit %.1f",
                r.name.c_str(), time_ok && allocs_ok ? "ok" : "REGRESSION",
                r.ns_per_op, limit);
    if (gate_allocs != baseline.end())
      std::printf(", %.2f allocs/op vs gate %.2f", r.allocs_per_op,
                  gate_allocs->second);
    std::printf(")\n");
    ok = ok && time_ok && allocs_ok;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "mobiwlan-bench: perf regression past %.0f%% tolerance "
                 "(baseline %s)\n",
                 100.0 * tol, opt.baseline.c_str());
    return 1;
  }
  std::printf("perf-check: all cases within %.0f%% of baseline\n", 100.0 * tol);
  return 0;
}

/// `--suite NAME`: fills the suite's default paths and runs it.
int run_suite(const Options& opt) {
  SuiteOptions run = opt.run;
  const std::string& name = opt.suite;
  if (run.out.empty())
    run.out = name == "perf" ? "BENCH_channel.json" : "BENCH_" + name + ".json";
  if (run.baseline.empty())
    run.baseline = name == "perf" || name == "scale"
                       ? "ci/perf_baseline.json"
                       : "ci/" + name + "_baseline.json";
  if (name == "perf") return run_perf(run);
  if (name == "scale") return mobiwlan::benchsuite::run_scale_bench(run);
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
