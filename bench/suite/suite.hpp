// suite.hpp — everything the unified mobiwlan-bench driver runs.
//
// Three kinds of entry live here:
//   * BenchDefs (`--filter`): the ported paper benches. Each fans trials out
//     through a runtime::Experiment and records metrics/text into a
//     runtime::BenchReport; the standalone per-figure binaries forward to
//     run_standalone() so both entry points execute the same trial code.
//   * GatedSuites (`--suite fidelity|fault|trace|campus|loc`): deterministic
//     FidelityReports checked against ci/NAME_baseline.json. Each suite is
//     only a descriptor; run_gated_suite() is the one runner that sets up
//     the pool, prints, checks and writes the report for all of them.
//   * The timing runs (`--suite perf`, `--suite scale`): the perf-case
//     registry and the AP-scale bench, gated on ci/perf_baseline.json.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mobility_mode.hpp"
#include "fault/fault.hpp"
#include "fidelity/fidelity.hpp"
#include "runtime/experiment.hpp"
#include "runtime/report.hpp"

namespace mobiwlan::benchsuite {

/// One bench registered with the driver.
struct BenchDef {
  std::string name;         ///< CLI name, e.g. "table1"
  std::string description;  ///< one-line summary shown by --list
  std::function<void(runtime::Experiment&, runtime::BenchReport&)> run;
};

/// All benches ported onto the runtime runner, in registration order.
const std::vector<BenchDef>& registry();

/// One timed measurement from a perf case.
struct PerfResult {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;  ///< 0 unless the counting hook is linked
};

/// One hot-path microbenchmark run by `mobiwlan-bench --suite perf`.
///
/// Perf cases are timing-based by nature, so they live in a separate
/// registry: the deterministic benches above must stay byte-identical across
/// worker counts, and perf numbers never appear in their JSON.
struct PerfCaseDef {
  std::string name;         ///< key used in BENCH_channel.json and the gate
  std::string description;  ///< one-line summary shown by --list
  std::function<PerfResult(double min_time_s)> run;
};

/// The registered perf cases (bench/suite/perf.cpp), in registration order.
const std::vector<PerfCaseDef>& perf_registry();

/// Runs one registered bench with the default seed and one worker per
/// hardware thread, printing its text output — the compatibility entry
/// point for the historical per-figure binaries. Returns a process exit
/// code (1 if `name` is not registered).
int run_standalone(const std::string& name);

/// printf-style formatting into a std::string (bench text assembly).
std::string strf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The banner every bench opens its text output with.
std::string banner_text(const std::string& figure,
                        const std::string& expectation);

// The registered benches (one definition per suite/*.cpp file).
BenchDef table1_bench();
BenchDef fig9_bench();
BenchDef fig13_bench();

/// One RA scheme over one channel seed (fig9.cpp) — shared with the
/// fidelity suite so the gate replays exactly the bench's trial code. The
/// fault-tolerance suite passes a non-zero `fault` plan; the default
/// (all-zero) plan is bitwise-identical to the historical signature.
double fig9_run_scheme(const std::string& scheme, std::uint64_t seed,
                       MobilityClass cls, const FaultPlan& fault = {});

/// The options of one `mobiwlan-bench --suite NAME` run. The driver fills
/// `out` and `baseline` with the suite's defaults when the flags are absent.
struct SuiteOptions {
  std::size_t jobs = 0;       ///< pool workers (0 = the suite's default)
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  bool check = false;         ///< gate the run against `baseline`
  std::string check_only;     ///< re-check this report file, no re-run
  std::string out;            ///< report path
  std::string baseline;       ///< baseline path
  double min_time_s = 1.0;    ///< per timing measurement (perf, scale)
  /// Nonzero selects large-campus mode: ONE {4 shards, jobs} run at this
  /// session count (no invariance matrix, no baseline gate) reporting
  /// conservation, peak RSS and throughput.
  std::uint64_t campus_sessions = 0;
  /// In large-campus mode, fail if peak RSS exceeds this many MiB (0 = off).
  double campus_rss_budget_mb = 0.0;
};

/// One gated suite: a deterministic FidelityReport producer checked against
/// a committed baseline (`ci/NAME_baseline.json`) by run_gated_suite().
struct GatedSuite {
  std::string name;    ///< `--suite` name; also names BENCH_NAME.json
  std::string banner;  ///< what the run covers, printed before it starts
  std::string gate;    ///< the gate's name in the failure message
  /// Runs the suite's experiments. For a fixed master seed the report is
  /// identical at any pool size outside metrics whose key starts "timing".
  std::function<fidelity::FidelityReport(runtime::Experiment&)> report;
};

/// fidelity, fault, trace, campus and loc, in that order.
const std::vector<GatedSuite>& gated_suites();

/// Runs one gated suite: builds the pool and Experiment, runs the report,
/// prints its metrics, checks it against `opt.baseline` when `opt.check`
/// is set, and writes the flat JSON to `opt.out`. With `opt.check_only`
/// set it instead re-reads that report and only checks it. Returns a
/// process exit code (1 on a failed check or an I/O error).
int run_gated_suite(const GatedSuite& suite, const SuiteOptions& opt);

/// Paper fidelity: Table 1, Fig 2, Fig 4 and Fig 9 statistics (fidelity.cpp).
GatedSuite fidelity_suite();
/// Graceful degradation under PHY-observable export loss (fault.cpp).
GatedSuite fault_suite();
/// Trace record/replay determinism and the arXiv 2002.03905 pitfall probes
/// (trace.cpp).
GatedSuite trace_suite();
/// Campus shard invariance across 1/4/16-shard partitionings (campus.cpp).
GatedSuite campus_suite();
/// CSI-fingerprint localization and mobility-gated refresh (loc.cpp).
GatedSuite loc_suite();

/// Large-campus mode of the campus suite (`--campus-sessions N`): one
/// 4-shard run at N sessions, failing on broken session conservation or a
/// peak RSS above `opt.campus_rss_budget_mb`. Returns a process exit code.
int run_campus_large(const SuiteOptions& opt);

/// The AP-scale throughput bench (`--suite scale`): 64 APs x 512 clients,
/// exact batch-vs-serial agreement + throughput + thread-scaling ladder +
/// steady-state alloc count, gated on the baseline's gate_scale_* keys when
/// `opt.check` is set. Everything in the JSON except `timing_*` keys is
/// byte-identical across `jobs` (0 means 1). Returns a process exit code.
int run_scale_bench(const SuiteOptions& opt);

}  // namespace mobiwlan::benchsuite
