// mobiwlan-bench — unified driver for the benches ported onto src/runtime/.
//
//   mobiwlan-bench --list                 enumerate registered benches
//   mobiwlan-bench                        run everything (default seed/jobs)
//   mobiwlan-bench --filter fig9          run benches whose name contains it
//   mobiwlan-bench --jobs 8 --seed 42     worker count / master seed
//   mobiwlan-bench --json out.json        write the structured run report
//   mobiwlan-bench --no-job-timing        omit per-job arrays from the JSON
//   mobiwlan-bench --perf                 run the hot-path perf cases and
//                                         write BENCH_channel.json
//   mobiwlan-bench --perf --perf-check    also gate against the committed
//                                         baseline (ci/perf_baseline.json)
//   mobiwlan-bench --fidelity             run the paper-fidelity experiments
//                                         and write BENCH_fidelity.json
//   mobiwlan-bench --fidelity-check       also gate against the committed
//                                         baseline (ci/fidelity_baseline.json)
//   mobiwlan-bench --fidelity-check-only F  re-check an existing
//                                         BENCH_fidelity.json, no re-run
//   mobiwlan-bench --scale                run the AP-scale throughput bench
//                                         (64 APs x 512 clients) and write
//                                         BENCH_scale.json
//   mobiwlan-bench --scale --scale-check  also gate against the baseline's
//                                         gate_scale_* keys
//   mobiwlan-bench --fault                run the fault-injection degradation
//                                         sweep and write BENCH_fault.json
//   mobiwlan-bench --fault-check          also gate against the committed
//                                         baseline (ci/fault_baseline.json)
//   mobiwlan-bench --fault-check-only F   re-check an existing
//                                         BENCH_fault.json, no re-run
//   mobiwlan-bench --trace                run the record/replay determinism
//                                         suite and write BENCH_trace.json
//   mobiwlan-bench --trace-check          also gate against the committed
//                                         baseline (ci/trace_baseline.json)
//   mobiwlan-bench --trace-check-only F   re-check an existing
//                                         BENCH_trace.json, no re-run
//   mobiwlan-bench --campus               run the campus shard-invariance
//                                         matrix and write BENCH_campus.json
//   mobiwlan-bench --campus-check         also gate against the committed
//                                         baseline (ci/campus_baseline.json)
//   mobiwlan-bench --campus-check-only F  re-check an existing
//                                         BENCH_campus.json, no re-run
//   mobiwlan-bench --campus-sessions N    large-campus mode: one 4-shard run
//                                         at N sessions (conservation + RSS
//                                         evidence; optionally bounded by
//                                         --campus-rss-budget-mb MB)
//   mobiwlan-bench --loc                  run the CSI-fingerprint
//                                         localization bench and write
//                                         BENCH_loc.json
//   mobiwlan-bench --loc-check            also gate against the committed
//                                         baseline (ci/loc_baseline.json)
//   mobiwlan-bench --loc-check-only F     re-check an existing
//                                         BENCH_loc.json, no re-run
//
// Determinism contract: for a fixed --seed, the printed tables and every
// non-"timing" byte of the JSON are identical for --jobs 1 and --jobs N.
// The fidelity JSON follows the same contract. Perf cases are timing-based
// and therefore live entirely behind --perf; they never contribute to the
// deterministic JSON above.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fidelity/fidelity.hpp"
#include "runtime/experiment.hpp"
#include "runtime/report.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "util/alloc_count.hpp"
#include "util/flatjson.hpp"
#include "util/simd.hpp"

namespace {

using mobiwlan::benchsuite::BenchDef;
using mobiwlan::benchsuite::PerfCaseDef;
using mobiwlan::benchsuite::PerfResult;
using mobiwlan::benchsuite::perf_registry;
using mobiwlan::benchsuite::registry;
namespace runtime = mobiwlan::runtime;

void print_usage() {
  std::printf(
      "usage: mobiwlan-bench [--list] [--filter SUBSTR] [--jobs N]\n"
      "                      [--seed S] [--json PATH] [--no-job-timing]\n"
      "                      [--perf] [--perf-out PATH] [--perf-baseline "
      "PATH]\n"
      "                      [--perf-check] [--perf-min-time SECONDS]\n"
      "                      [--fidelity] [--fidelity-check]\n"
      "                      [--fidelity-check-only PATH] [--fidelity-out "
      "PATH]\n"
      "                      [--fidelity-baseline PATH]\n"
      "                      [--scale] [--scale-check] [--scale-out PATH]\n"
      "                      [--fault] [--fault-check]\n"
      "                      [--fault-check-only PATH] [--fault-out PATH]\n"
      "                      [--fault-baseline PATH]\n"
      "                      [--trace] [--trace-check]\n"
      "                      [--trace-check-only PATH] [--trace-out PATH]\n"
      "                      [--trace-baseline PATH]\n"
      "                      [--campus] [--campus-check]\n"
      "                      [--campus-check-only PATH] [--campus-out PATH]\n"
      "                      [--campus-baseline PATH]\n"
      "                      [--campus-sessions N]\n"
      "                      [--campus-rss-budget-mb MB]\n"
      "                      [--loc] [--loc-check]\n"
      "                      [--loc-check-only PATH] [--loc-out PATH]\n"
      "                      [--loc-baseline PATH]\n");
}

struct Options {
  bool list = false;
  bool job_timing = true;
  bool perf = false;
  bool perf_check = false;
  bool fidelity = false;
  bool fidelity_check = false;
  bool scale = false;
  bool scale_check = false;
  bool fault = false;
  bool fault_check = false;
  bool trace = false;
  bool trace_check = false;
  bool campus = false;
  bool campus_check = false;
  bool loc = false;
  bool loc_check = false;
  std::string filter;
  std::string json_path;
  std::string perf_out = "BENCH_channel.json";
  std::string perf_baseline = "ci/perf_baseline.json";
  std::string fidelity_check_only;  // path to an existing BENCH_fidelity.json
  std::string fidelity_out = "BENCH_fidelity.json";
  std::string fidelity_baseline = "ci/fidelity_baseline.json";
  std::string scale_out = "BENCH_scale.json";
  std::string fault_check_only;  // path to an existing BENCH_fault.json
  std::string fault_out = "BENCH_fault.json";
  std::string fault_baseline = "ci/fault_baseline.json";
  std::string trace_check_only;  // path to an existing BENCH_trace.json
  std::string trace_out = "BENCH_trace.json";
  std::string trace_baseline = "ci/trace_baseline.json";
  std::string campus_check_only;  // path to an existing BENCH_campus.json
  std::string campus_out = "BENCH_campus.json";
  std::string campus_baseline = "ci/campus_baseline.json";
  std::uint64_t campus_sessions = 0;   // nonzero: large-campus single run
  double campus_rss_budget_mb = 0.0;   // large mode: peak-RSS bound (0 = off)
  std::string loc_check_only;  // path to an existing BENCH_loc.json
  std::string loc_out = "BENCH_loc.json";
  std::string loc_baseline = "ci/loc_baseline.json";
  double perf_min_time = 1.0;
  std::size_t jobs = 0;  // 0 = one worker per hardware thread
  std::uint64_t seed = runtime::kMasterSeed;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
    } else if (arg == "--perf") {
      opt.perf = true;
    } else if (arg == "--perf-check") {
      opt.perf_check = true;
    } else if (arg == "--perf-out") {
      const char* v = value("--perf-out");
      if (!v) return false;
      opt.perf_out = v;
    } else if (arg == "--perf-baseline") {
      const char* v = value("--perf-baseline");
      if (!v) return false;
      opt.perf_baseline = v;
    } else if (arg == "--fidelity") {
      opt.fidelity = true;
    } else if (arg == "--fidelity-check") {
      opt.fidelity = true;
      opt.fidelity_check = true;
    } else if (arg == "--fidelity-check-only") {
      const char* v = value("--fidelity-check-only");
      if (!v) return false;
      opt.fidelity_check_only = v;
    } else if (arg == "--fidelity-out") {
      const char* v = value("--fidelity-out");
      if (!v) return false;
      opt.fidelity_out = v;
    } else if (arg == "--fidelity-baseline") {
      const char* v = value("--fidelity-baseline");
      if (!v) return false;
      opt.fidelity_baseline = v;
    } else if (arg == "--scale") {
      opt.scale = true;
    } else if (arg == "--scale-check") {
      opt.scale = true;
      opt.scale_check = true;
    } else if (arg == "--scale-out") {
      const char* v = value("--scale-out");
      if (!v) return false;
      opt.scale_out = v;
    } else if (arg == "--fault") {
      opt.fault = true;
    } else if (arg == "--fault-check") {
      opt.fault = true;
      opt.fault_check = true;
    } else if (arg == "--fault-check-only") {
      const char* v = value("--fault-check-only");
      if (!v) return false;
      opt.fault_check_only = v;
    } else if (arg == "--fault-out") {
      const char* v = value("--fault-out");
      if (!v) return false;
      opt.fault_out = v;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--trace-check") {
      opt.trace = true;
      opt.trace_check = true;
    } else if (arg == "--trace-check-only") {
      const char* v = value("--trace-check-only");
      if (!v) return false;
      opt.trace_check_only = v;
    } else if (arg == "--trace-out") {
      const char* v = value("--trace-out");
      if (!v) return false;
      opt.trace_out = v;
    } else if (arg == "--trace-baseline") {
      const char* v = value("--trace-baseline");
      if (!v) return false;
      opt.trace_baseline = v;
    } else if (arg == "--campus") {
      opt.campus = true;
    } else if (arg == "--campus-check") {
      opt.campus = true;
      opt.campus_check = true;
    } else if (arg == "--campus-check-only") {
      const char* v = value("--campus-check-only");
      if (!v) return false;
      opt.campus_check_only = v;
    } else if (arg == "--campus-out") {
      const char* v = value("--campus-out");
      if (!v) return false;
      opt.campus_out = v;
    } else if (arg == "--campus-baseline") {
      const char* v = value("--campus-baseline");
      if (!v) return false;
      opt.campus_baseline = v;
    } else if (arg == "--campus-sessions") {
      const char* v = value("--campus-sessions");
      if (!v) return false;
      opt.campus = true;
      opt.campus_sessions = std::strtoull(v, nullptr, 10);
    } else if (arg == "--campus-rss-budget-mb") {
      const char* v = value("--campus-rss-budget-mb");
      if (!v) return false;
      opt.campus_rss_budget_mb = std::strtod(v, nullptr);
    } else if (arg == "--loc") {
      opt.loc = true;
    } else if (arg == "--loc-check") {
      opt.loc = true;
      opt.loc_check = true;
    } else if (arg == "--loc-check-only") {
      const char* v = value("--loc-check-only");
      if (!v) return false;
      opt.loc_check_only = v;
    } else if (arg == "--loc-out") {
      const char* v = value("--loc-out");
      if (!v) return false;
      opt.loc_out = v;
    } else if (arg == "--loc-baseline") {
      const char* v = value("--loc-baseline");
      if (!v) return false;
      opt.loc_baseline = v;
    } else if (arg == "--fault-baseline") {
      const char* v = value("--fault-baseline");
      if (!v) return false;
      opt.fault_baseline = v;
    } else if (arg == "--perf-min-time") {
      const char* v = value("--perf-min-time");
      if (!v) return false;
      opt.perf_min_time = std::strtod(v, nullptr);
    } else if (arg == "--filter") {
      const char* v = value("--filter");
      if (!v) return false;
      opt.filter = v;
    } else if (arg == "--json") {
      const char* v = value("--json");
      if (!v) return false;
      opt.json_path = v;
    } else if (arg == "--jobs") {
      const char* v = value("--jobs");
      if (!v) return false;
      opt.jobs = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = value("--seed");
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "mobiwlan-bench: unknown flag %s\n", arg.c_str());
      print_usage();
      return false;
    }
  }
  return true;
}

using mobiwlan::load_flat_json;  // util/flatjson.hpp

/// Runs the perf cases, writes the flat BENCH report (with pre-PR baseline
/// numbers and speedups folded in when the baseline file provides them), and
/// optionally gates against the baseline's gate_* values.
int run_perf(const Options& opt) {
  const auto baseline = load_flat_json(opt.perf_baseline);
  if (!baseline.empty())
    std::printf("perf: baseline %s (%zu keys)\n", opt.perf_baseline.c_str(),
                baseline.size());
  else
    std::printf("perf: no baseline at %s (measuring only)\n",
                opt.perf_baseline.c_str());
  if (!mobiwlan::alloc_hook_active())
    std::printf("perf: warning: alloc hook not linked, allocs/op will read 0\n");

  std::vector<PerfResult> results;
  for (const PerfCaseDef& def : perf_registry()) {
    PerfResult r = def.run(opt.perf_min_time);
    std::printf("  %-20s %12.1f ns/op  %12.0f ops/s  %6.2f allocs/op\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.allocs_per_op);
    results.push_back(std::move(r));
  }

  std::ofstream out(opt.perf_out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n",
                 opt.perf_out.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"channel_perf\",\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "  \"min_time_s\": %g,\n", opt.perf_min_time);
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
  std::printf("wrote %s (%zu cases)\n", opt.perf_out.c_str(), results.size());

  if (!opt.perf_check) return 0;

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
                 100.0 * tol, opt.perf_baseline.c_str());
    return 1;
  }
  std::printf("perf-check: all cases within %.0f%% of baseline\n", 100.0 * tol);
  return 0;
}

namespace fidelity = mobiwlan::fidelity;

/// Checks a fidelity report against the committed baseline and prints the
/// verdict table. Returns the process exit code.
int check_fidelity_report(const fidelity::FidelityReport& report,
                          std::uint64_t run_seed, const Options& opt,
                          fidelity::CheckResult& check) {
  const auto baseline = load_flat_json(opt.fidelity_baseline);
  if (baseline.empty()) {
    std::fprintf(stderr, "mobiwlan-bench: no fidelity baseline at %s\n",
                 opt.fidelity_baseline.c_str());
    return 1;
  }
  check = report.check(baseline, run_seed);
  std::printf("\nfidelity-check against %s (seed %llu):\n",
              opt.fidelity_baseline.c_str(),
              static_cast<unsigned long long>(run_seed));
  std::fputs(fidelity::render_check(check).c_str(), stdout);
  if (!check.pass()) {
    std::fprintf(stderr,
                 "mobiwlan-bench: paper-fidelity gate FAILED (baseline %s)\n",
                 opt.fidelity_baseline.c_str());
    return 1;
  }
  std::printf("fidelity-check: all bounds hold\n");
  return 0;
}

/// `--fidelity` / `--fidelity-check`: run the experiments, write
/// BENCH_fidelity.json, optionally gate. `--fidelity-check-only` skips the
/// run and re-checks an existing report file instead.
int run_fidelity_mode(const Options& opt) {
  if (!opt.fidelity_check_only.empty()) {
    const auto doc = load_flat_json(opt.fidelity_check_only);
    if (doc.empty()) {
      std::fprintf(stderr, "mobiwlan-bench: cannot read fidelity report %s\n",
                   opt.fidelity_check_only.c_str());
      return 1;
    }
    std::uint64_t seed = 0;
    const fidelity::FidelityReport report =
        fidelity::report_from_flat_json(doc, seed);
    fidelity::CheckResult check;
    return check_fidelity_report(report, seed, opt, check);
  }

  std::size_t jobs = opt.jobs;
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw ? hw : 1;
  }
  runtime::ThreadPool pool(jobs);
  runtime::BenchReport bench_report;
  bench_report.name = "fidelity";
  runtime::Experiment exp(pool, opt.seed, &bench_report);

  std::printf("fidelity: re-running Table 1 / Fig 2 / Fig 4 / Fig 9 "
              "(seed %llu, %zu workers)\n",
              static_cast<unsigned long long>(opt.seed), pool.size());
  const auto start = std::chrono::steady_clock::now();
  const fidelity::FidelityReport report =
      mobiwlan::benchsuite::run_fidelity(exp);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const auto& [key, v] : report.metrics())
    std::printf("  %-44s %.6g\n", key.c_str(), v);
  std::printf("[fidelity: %zu jobs on %zu workers, %.2fs wall]\n",
              bench_report.jobs.size(), pool.size(), wall_s);

  fidelity::CheckResult check;
  int rc = 0;
  const fidelity::CheckResult* check_ptr = nullptr;
  if (opt.fidelity_check) {
    rc = check_fidelity_report(report, opt.seed, opt, check);
    check_ptr = &check;
  }

  std::ofstream out(opt.fidelity_out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "mobiwlan-bench: cannot write %s\n",
                 opt.fidelity_out.c_str());
    return 1;
  }
  out << report.to_json(opt.seed, wall_s, check_ptr);
  out.close();
  std::printf("wrote %s (%zu metrics)\n", opt.fidelity_out.c_str(),
              report.metrics().size());
  return rc;
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

  if (opt.perf) return run_perf(opt);
  if (opt.scale) {
    mobiwlan::benchsuite::ScaleOptions so;
    so.jobs = opt.jobs ? opt.jobs : 1;
    so.seed = opt.seed;
    so.min_time_s = opt.perf_min_time;
    so.check = opt.scale_check;
    so.out = opt.scale_out;
    so.baseline = opt.perf_baseline;
    return mobiwlan::benchsuite::run_scale_bench(so);
  }
  if (opt.fidelity || !opt.fidelity_check_only.empty())
    return run_fidelity_mode(opt);
  if (opt.fault || !opt.fault_check_only.empty()) {
    mobiwlan::benchsuite::FaultOptions fo;
    fo.jobs = opt.jobs;
    fo.seed = opt.seed;
    fo.check = opt.fault_check;
    fo.check_only = opt.fault_check_only;
    fo.out = opt.fault_out;
    fo.baseline = opt.fault_baseline;
    return mobiwlan::benchsuite::run_fault_bench(fo);
  }
  if (opt.trace || !opt.trace_check_only.empty()) {
    mobiwlan::benchsuite::TraceOptions to;
    to.jobs = opt.jobs;
    to.seed = opt.seed;
    to.check = opt.trace_check;
    to.check_only = opt.trace_check_only;
    to.out = opt.trace_out;
    to.baseline = opt.trace_baseline;
    return mobiwlan::benchsuite::run_trace_bench(to);
  }
  if (opt.loc || !opt.loc_check_only.empty()) {
    mobiwlan::benchsuite::LocOptions lo;
    lo.jobs = opt.jobs;
    lo.seed = opt.seed;
    lo.check = opt.loc_check;
    lo.check_only = opt.loc_check_only;
    lo.out = opt.loc_out;
    lo.baseline = opt.loc_baseline;
    return mobiwlan::benchsuite::run_loc_bench(lo);
  }
  if (opt.campus || !opt.campus_check_only.empty()) {
    mobiwlan::benchsuite::CampusOptions co;
    co.jobs = opt.jobs;
    co.seed = opt.seed;
    co.check = opt.campus_check;
    co.check_only = opt.campus_check_only;
    co.out = opt.campus_out;
    co.baseline = opt.campus_baseline;
    co.sessions = opt.campus_sessions;
    co.rss_budget_mb = opt.campus_rss_budget_mb;
    return mobiwlan::benchsuite::run_campus_bench(co);
  }

  std::vector<const BenchDef*> selected;
  for (const BenchDef& def : registry())
    if (def.name.find(opt.filter) != std::string::npos)
      selected.push_back(&def);
  if (selected.empty()) {
    std::fprintf(stderr, "mobiwlan-bench: no bench matches --filter '%s'\n",
                 opt.filter.c_str());
    return 1;
  }

  std::size_t jobs = opt.jobs;
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw ? hw : 1;
  }

  runtime::ThreadPool pool(jobs);
  runtime::RunReport run;
  run.master_seed = opt.seed;
  run.workers = pool.size();

  const auto run_start = std::chrono::steady_clock::now();
  for (const BenchDef* def : selected) {
    runtime::BenchReport report;
    report.name = def->name;
    report.description = def->description;
    runtime::Experiment exp(pool, opt.seed, &report);
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
