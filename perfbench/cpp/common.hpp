// common.hpp — shared pieces of the repository benchmark: options, the
// result record every workload fills, and the span tracer of the traced run.
//
// The tracer times calls into the library from outside (the benchmark's own
// code wraps each public call in a Span). It keeps aggregate counters for
// every call and full span records only for an id-sampled subset, so the
// campus workload's millions of calls fit in memory. Self time is a span's
// duration minus the time its child spans cover. Spans read the CPU's
// invariant time-stamp counter (half the cost of steady_clock here, and not
// serializing), scaled to nanoseconds against steady_clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 20140204;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";     ///< repository checkout (ci/ baselines live here)
  std::string out_dir = ".";  ///< span export and trace files
  std::size_t workers = 1;    ///< min(4, hardware threads)
};

/// Timed layers. The first block are the library calls the per-layer
/// metrics name; the request roots after kFirstRoot group one request's
/// calls (their self time is the benchmark's own glue: "unattributed").
enum class Layer : std::uint8_t {
  kChanSample,
  kCoreObserve,
  kMacStep,
  kCampusRoam,
  kCampusAdmit,
  kCampusFold,
  kCampusEpoch,
  kLocObserveAp,
  kLocLocate,
  kLocLocateFused,
  kPhyAoa,
  kLocRefresh,
  kTraceRead,
  kTraceWrite,
  kFirstRoot,
  kCampusStep = kFirstRoot,
  kLocQuery,
  kClientEpoch,
  kCount
};

const char* layer_name(Layer layer);

/// How much a span costs and keeps: kCount only counts the call; kTime also
/// times it; kRecord also keeps the full span when its parent (if any) is
/// kept. The campus re-drive makes ~5M calls of a few hundred ns each, where
/// two clock reads per call would distort what they measure, so it times
/// only an id-sampled subset of sessions and counts the rest.
enum class Detail : std::uint8_t { kCount, kTime, kRecord };

class Tracer {
 public:
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;  ///< calls that were timed
    std::int64_t total = 0;   ///< ticks over timed calls
    std::int64_t self = 0;    ///< ticks over timed calls
  };

  Tracer();

  /// Selects a fixed subset of ids: 1 in 16.
  bool sampled(std::uint64_t id) const;

  /// Counts one call without timing it (Detail::kCount).
  void count(Layer layer) { ++agg_[static_cast<std::size_t>(layer)].calls; }
  /// Opens a timed span (Detail::kTime or kRecord).
  void begin(Layer layer, std::uint64_t request, Detail detail);
  void end();

  /// Nanoseconds per tick of the span clock, measured against
  /// steady_clock over the tracer's lifetime so far.
  double ns_per_tick() const;

  const Agg& agg(Layer layer) const {
    return agg_[static_cast<std::size_t>(layer)];
  }
  /// Mean inclusive time of a timed call.
  double ns_per_call(Layer layer) const;
  /// Self time of all calls: the timed calls' self time scaled by
  /// calls / timed (exact when every call was timed).
  double self_ns(Layer layer) const;

  /// CSV: name,start_ns,end_ns,parent,request — parent is the 1-based row
  /// of the parent span (0 = root), times are relative to construction.
  bool write_csv(const std::string& path) const;

 private:
  struct Record {
    std::int64_t start;  ///< ticks since construction
    std::int64_t end;
    std::uint64_t request;
    std::uint32_t parent;  ///< 1-based row, 0 = none
    Layer layer;
  };
  struct Open {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
    std::uint32_t row;  ///< 1-based row of its record, 0 = not recorded
  };
  std::int64_t origin_ns_;    ///< steady_clock at construction
  std::int64_t origin_tick_;  ///< span clock at construction
  Agg agg_[static_cast<std::size_t>(Layer::kCount)] = {};
  std::vector<Open> stack_;
  std::vector<Record> spans_;
};

/// kRecord for an id the tracer samples, else `otherwise`.
inline Detail pick(const Tracer* tr, std::uint64_t id, Detail otherwise) {
  return tr && tr->sampled(id) ? Detail::kRecord : otherwise;
}

/// Scoped span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, Layer layer, std::uint64_t request,
       Detail detail = Detail::kRecord)
      : tracer_(detail == Detail::kCount ? nullptr : tracer) {
    if (tracer_) {
      tracer_->begin(layer, request, detail);
    } else if (tracer) {
      tracer->count(layer);
    }
  }
  ~Span() {
    if (tracer_) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run produced. `metrics` are the contract metrics of the
/// mode (end-to-end, or per-layer when traced); `report` carries the
/// workload's own named figures and sample counts for the log.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks, one line each
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> report;
  std::vector<std::string> info;  ///< free-form log lines (digests in hex)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, double value) {
    report.emplace_back(key, value);
  }
  /// Records an output check; a false condition is a failure of the run.
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty() && failed == 0; }
};

/// The timed loop's figures, block by block. The host these figures were
/// taken on alternates between a steady contended state and bursts of a
/// faster one of varying speed (other tenants on the same cores), up to
/// ~1.8x apart; a median over blocks moves with the share of fast bursts in
/// a run, and a fast quantile with their speed. The figures are therefore
/// taken from the slow quartile, which tracks the steady state: the rate is
/// the 25th percentile of the block rates, and a latency quantile is the
/// 75th percentile over blocks of the block's own quantile. Blocks are short
/// (tens of ms to ~1 s) and each holds enough samples for its p90. The
/// bounded tail is p90: the p99 (of all samples pooled) goes to the log
/// only, because on a shared host its spread is set by the host's hiccups.
class Blocks {
 public:
  /// Closes a block of `ops` operations that took `wall_s`; `lat_us` holds
  /// its per-operation latencies and is cleared.
  void add(std::uint64_t ops, double wall_s, std::vector<double>& lat_us);
  /// throughput_per_s, op_us_p50 and op_us_p90, repeated in the log under
  /// the workload's own names with the p99 and the all-block medians.
  void report(Result& r, const std::string& rate_name,
              const std::string& latency_name) const;

 private:
  std::vector<double> rate_;
  std::vector<std::vector<double>> lat_;  ///< per block
};

/// Moves the calling thread round robin over the CPUs it may run on, for
/// the single-caller workloads to call between blocks. The host's cores are
/// not equally contended and the scheduler keeps a busy thread on one core
/// for minutes, so a pinned-by-chance run measured whichever core it landed
/// on; rotating makes every run sample all of them. The destructor restores
/// the thread's CPU mask. Without a usable mask it does nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// X.calls, X.ns_per_call (inclusive) and X.share (self time over
/// `wall_ns`) for one traced layer.
void add_layer_metrics(Result& r, const Tracer& tr, Layer layer,
                       std::int64_t wall_ns);
/// unattributed = 1 - (sum of the listed layers' self time) / wall.
void add_unattributed(Result& r, const Tracer& tr,
                      const std::vector<Layer>& layers, std::int64_t wall_ns);

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// 0x-prefixed 16-digit hex, for digests in the log.
std::string hex(std::uint64_t v);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

Result run_campus_churn(const Options& opt);
Result run_loc_walk(const Options& opt);
Result run_loc_replay(const Options& opt);

/// Tiny-size self-checks of the benchmark itself; returns failures.
std::vector<std::string> smoke_campus_redrive(const Options& opt);
std::vector<std::string> smoke_loc_replay(const Options& opt);

}  // namespace perfbench
