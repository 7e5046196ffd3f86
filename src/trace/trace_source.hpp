// trace_source.hpp — replaying an ObservableSource from a recorded trace.
//
// A trace is a set of per-(kind, unit) ordered logs of reads. TraceSource
// walks each log with a cursor: every query consumes exactly one in-tolerance
// record from its stream (duplicate timestamps are legal — a roaming scan
// reads the same AP twice at one instant — and are served in log order).
//
// Records are decoded from the file strictly forward in one pass, each one
// once. A query at time t decodes only until its own stream holds a record
// at or after t - skew_tol_s: the records before that one are exactly those
// the query skips, and that one is the only candidate match, so no answer
// depends on reading further. The reader is thus never further into the
// file than the furthest-ahead consumer needs, and each stream's backlog is
// the records logged between its own consumer's position and that point.
// Replay memory is bounded by how far the interleaved consumers drift apart
// (for a time-ordered recording, the records of that time span), never by
// trace length or by gaps in a stream. A pending record costs one compact
// entry; a CSI payload additionally occupies one pooled CsiMatrix from
// decode until its record stops being its stream's current value, and the
// buffer is then recycled. Once every backlog has reached its peak size,
// replay allocates nothing.
//
// The arXiv 2002.03905 trace-replay pitfalls map to explicit behavior here:
//
//   timing skew      — in strict mode any query that does not align with the
//                      log within skew_tol_s throws kTimestampSkew (the
//                      replay-determinism gate runs strict); in relaxed mode
//                      skew is counted, never silently absorbed.
//   gaps             — a query falling in a recording hole returns *absence*,
//                      which consumers route through the classifier's
//                      hold-then-decay path. TraceSource never interpolates.
//                      max_age_s > 0 opts into serving the previous record
//                      while it is younger than the bound (for ragged
//                      external captures), still never synthesizing values.
//   missing feedback — has() reflects the header's stream mask, so
//                      ObservableSource::require() refuses to drive a
//                      consumer from a trace lacking its observables.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/source.hpp"
#include "trace/trace_io.hpp"

namespace mobiwlan::trace {

class TraceSource : public ObservableSource {
 public:
  struct Config {
    /// Queries within this of a record's timestamp match it. Recorded
    /// replays align exactly; the default only forgives representation-level
    /// jitter in imported traces.
    double skew_tol_s = 1e-9;
    /// Relaxed mode only: serve the stream's previous record on a miss while
    /// it is at most this old. 0 = misses are absent (the gap contract).
    double max_age_s = 0.0;
    /// Strict replay: any skipped record or unmatched query throws
    /// kTimestampSkew. Relaxed replay counts them instead.
    bool strict = true;
    /// Stream kinds discarded at decode time (stream_bit() mask). Set this
    /// when a consumer deliberately ignores streams present in the trace, so
    /// their pending records don't accumulate.
    std::uint32_t ignore_mask = 0;
  };

  /// Replay tallies: `served` in-tolerance matches with a value, `absent`
  /// matches against recorded absence records (the read was dropped when
  /// recorded), `held` misses covered by max_age_s, `missing` queries with no
  /// matching record at all, `skipped` records passed over by a later query
  /// (relaxed mode only).
  struct Counters {
    std::uint64_t served = 0;
    std::uint64_t absent = 0;
    std::uint64_t held = 0;
    std::uint64_t missing = 0;
    std::uint64_t skipped = 0;
  };

  explicit TraceSource(const std::string& path) : TraceSource(path, Config{}) {}
  TraceSource(const std::string& path, Config config);

  std::size_t n_units() const override { return header().n_units; }
  bool has(StreamKind kind) const override {
    return header().has(kind) && (config_.ignore_mask & stream_bit(kind)) == 0;
  }

  bool csi(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) override;
  std::optional<double> rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> scan_rssi_dbm(std::uint32_t unit, double t) override;
  std::optional<double> tof_cycles(std::uint32_t unit, double t) override;
  std::optional<double> snr_db(std::uint32_t unit, double t) override;
  std::optional<double> true_distance(std::uint32_t unit, double t) override;
  bool feedback_delivered(std::uint32_t unit, double t) override;

  const TraceHeader& header() const { return reader_.header(); }
  const Config& config() const { return config_; }
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One decoded record of a known stream. A present matrix record's
  /// payload is pool_[slot]; scalar and absence records own no slot.
  struct Entry {
    double t = 0.0;
    double scalar = 0.0;
    std::uint32_t slot = kNoSlot;
    bool present = true;
  };

  /// FIFO of entries in one power-of-two buffer that doubles when full and
  /// never shrinks: once it has held a stream's peak backlog, push and pop
  /// never allocate (a std::deque frees and refetches a node every time its
  /// front block drains).
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    const Entry& front() const { return buf_[head_]; }
    const Entry& back() const {
      return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
    }
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
    void push_back(const Entry& e);

   private:
    std::vector<Entry> buf_;
    std::size_t head_ = 0;  // index of the oldest entry
    std::size_t size_ = 0;
  };

  struct Stream {
    Ring pending;  // decoded, not yet consumed
    Entry current;  // last consumed present record
    bool have_current = false;
  };

  Stream& stream(StreamKind kind, std::uint32_t unit);
  /// Decodes records forward until `s` holds a record at or after
  /// t - skew_tol_s, or the file ends. Streams are timestamp-monotone, so
  /// the records fetch() skips and the one it matches are all decoded by
  /// then; every other stream's records met on the way queue as its backlog.
  void pump(Stream& s, double t);
  /// Consumes and returns the record matching (kind, unit, t), nullptr on an
  /// uncovered miss. Throws kTimestampSkew per the strictness contract. The
  /// returned entry (and its payload) stays valid until the next query.
  const Entry* fetch(StreamKind kind, std::uint32_t unit, double t);
  /// Makes `e` the stream's current record, recycling the payload slot of
  /// the record it replaces.
  void make_current(Stream& s, const Entry& e);
  std::uint32_t acquire_slot();
  std::optional<double> fetch_scalar(StreamKind kind, std::uint32_t unit,
                                     double t);
  bool fetch_csi(StreamKind kind, std::uint32_t unit, double t,
                 CsiMatrix& out);

  TraceReader reader_;
  Config config_;
  Counters counters_;
  std::vector<Stream> streams_;      // [kind * n_units + unit]
  std::vector<CsiMatrix> pool_;      // matrix payloads, indexed by slot
  std::vector<std::uint32_t> free_;  // unowned pool_ slots (LIFO)
  TraceRecord scratch_;              // decode target before routing
  bool reader_done_ = false;
};

}  // namespace mobiwlan::trace
