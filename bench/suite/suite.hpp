// suite.hpp — the benches registered with the unified mobiwlan-bench driver.
//
// Each ported bench is a BenchDef: a name the CLI filters on and a run
// function that fans trials out through a runtime::Experiment and records
// metrics/text into a runtime::BenchReport. The standalone per-figure
// binaries forward to run_standalone() so both entry points execute the
// exact same trial code.
#pragma once

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

/// One hot-path microbenchmark run by `mobiwlan-bench --perf`.
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

/// Re-runs the core experiments (Table 1, Fig 2, Fig 4, Fig 9) through the
/// sharder and records the statistics the paper-fidelity gate asserts on.
/// Deterministic for a fixed Experiment seed at any worker count.
fidelity::FidelityReport run_fidelity(runtime::Experiment& exp);

/// `mobiwlan-bench --scale` configuration (bench/suite/scale.cpp).
struct ScaleOptions {
  std::size_t jobs = 1;       ///< pool workers for the agreement/shard passes
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  double min_time_s = 1.0;    ///< per timing measurement
  bool check = false;         ///< gate against the baseline's gate_scale_* keys
  std::string out = "BENCH_scale.json";
  std::string baseline = "ci/perf_baseline.json";
};

/// The AP-scale throughput bench: 64 APs x 512 clients, exact batch-vs-serial
/// agreement + throughput + thread-scaling ladder + steady-state alloc
/// count. Everything in the JSON except `timing_*` keys is byte-identical
/// across `jobs`. Returns a process exit code.
int run_scale_bench(const ScaleOptions& opt);

/// `mobiwlan-bench --fault` configuration (bench/suite/fault.cpp).
struct FaultOptions {
  std::size_t jobs = 0;       ///< pool workers (0 = one per hardware thread)
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  bool check = false;         ///< gate against the committed baseline
  std::string check_only;     ///< re-check this BENCH_fault.json, no re-run
  std::string out = "BENCH_fault.json";
  std::string baseline = "ci/fault_baseline.json";
};

/// The fault-tolerance / graceful-degradation bench: Table-1 classification
/// accuracy vs CSI+ToF drop rate (0-50%), Fig-9 / Fig-13 mobility-aware vs
/// stock throughput ratios under export loss, motion-aware roaming under
/// 30% ToF loss, and an exact zero-fault identity probe. Deterministic for
/// a fixed seed at any worker count (same flat-JSON contract as the
/// fidelity report). Returns a process exit code.
int run_fault_bench(const FaultOptions& opt);

/// `mobiwlan-bench --trace` configuration (bench/suite/trace.cpp).
struct TraceOptions {
  std::size_t jobs = 0;       ///< pool workers (0 = one per hardware thread)
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  bool check = false;         ///< gate against the committed baseline
  std::string check_only;     ///< re-check this BENCH_trace.json, no re-run
  std::string out = "BENCH_trace.json";
  std::string baseline = "ci/trace_baseline.json";
};

/// The trace record/replay determinism bench: every protocol loop recorded
/// live and replayed from the trace alone with bitwise result comparison,
/// fault-layer composition onto replay, the arXiv 2002.03905 pitfall probes
/// (timestamp skew, gap decay, missing streams), a CSV import round-trip,
/// and a timing-quarantined replay-throughput measurement. Deterministic
/// for a fixed seed at any worker count outside `"timing` lines. Returns a
/// process exit code.
int run_trace_bench(const TraceOptions& opt);

/// `mobiwlan-bench --campus` configuration (bench/suite/campus.cpp).
struct CampusOptions {
  std::size_t jobs = 0;       ///< workers per campus run (0 = one per hw thread)
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  bool check = false;         ///< gate against the committed baseline
  std::string check_only;     ///< re-check this BENCH_campus.json, no re-run
  std::string out = "BENCH_campus.json";
  std::string baseline = "ci/campus_baseline.json";
  /// Nonzero switches to large-campus mode: ONE {4 shards, jobs} run at
  /// this session count (no invariance matrix, no baseline gate) reporting
  /// conservation, peak RSS and throughput — the 250k ctest smoke and the
  /// 10^6-session memory-budget evidence in EXPERIMENTS.md.
  std::uint64_t sessions = 0;
  /// In large-campus mode, fail if peak RSS exceeds this many MiB (0 = off).
  double rss_budget_mb = 0.0;
};

/// The campus shard-invariance bench: one 1024-AP / 100k-session churn
/// scenario run under 1/4/16-shard partitionings (plus a 16-shard
/// single-worker cross-check), with every shard-invariant observable —
/// aggregate counters, bitwise float sums, per-session digest combiners,
/// histogram quantiles — compared exactly across the matrix and gated.
/// Deterministic for a fixed seed at any shard/worker count outside
/// `"timing` lines. Returns a process exit code.
int run_campus_bench(const CampusOptions& opt);

/// `mobiwlan-bench --loc` configuration (bench/suite/loc.cpp).
struct LocOptions {
  std::size_t jobs = 0;       ///< pool workers (0 = one per hardware thread)
  std::uint64_t seed = 0;     ///< master seed (driver passes --seed)
  bool check = false;         ///< gate against the committed baseline
  std::string check_only;     ///< re-check this BENCH_loc.json, no re-run
  std::string out = "BENCH_loc.json";
  std::string baseline = "ci/loc_baseline.json";
};

/// The CSI-fingerprint localization bench: parallel survey of a 10^4-cell
/// fingerprint database (bitwise digest + serial rebuild probe), held-out
/// walk accuracy for kNN-only and AoA/ToF-fused estimates, the
/// mobility-gated vs always-update refresh ablation on a recorded
/// observation stream, and the single-thread lookup-rate section. For a
/// fixed --seed, everything outside keys starting with "timing" is
/// byte-identical at any --jobs. Returns a process exit code.
int run_loc_bench(const LocOptions& opt);

}  // namespace mobiwlan::benchsuite
