#include "trace/trace_source.hpp"

#include <cmath>
#include <utility>

namespace mobiwlan::trace {

namespace {

std::string at(StreamKind kind, std::uint32_t unit, double t) {
  return std::string(to_string(kind)) + "/unit " + std::to_string(unit) +
         " at t=" + std::to_string(t);
}

}  // namespace

TraceSource::TraceSource(const std::string& path, Config config)
    : reader_(path), config_(config) {
  streams_.resize(kNumStreamKinds * header().n_units);
}

TraceSource::Stream& TraceSource::stream(StreamKind kind, std::uint32_t unit) {
  return streams_[static_cast<std::size_t>(kind) * header().n_units + unit];
}

void TraceSource::Ring::push_back(const Entry& e) {
  if (size_ == buf_.size()) {
    // Full (or never used): unroll into a buffer twice the size.
    std::vector<Entry> grown(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = e;
  ++size_;
}

std::uint32_t TraceSource::acquire_slot() {
  if (free_.empty()) {
    pool_.emplace_back();
    // Every slot can be free at once; reserving now keeps the release path
    // (make_current) allocation-free.
    free_.reserve(pool_.size());
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

void TraceSource::make_current(Stream& s, const Entry& e) {
  if (s.have_current && s.current.slot != kNoSlot)
    free_.push_back(s.current.slot);
  s.current = e;
  s.have_current = true;
}

void TraceSource::pump(Stream& s, double t) {
  const double floor = t - config_.skew_tol_s;
  while (!reader_done_ && (s.pending.empty() || s.pending.back().t < floor)) {
    if (!reader_.next(scratch_)) {
      reader_done_ = true;
      break;
    }
    if ((config_.ignore_mask & stream_bit(scratch_.kind)) != 0) continue;
    Entry e{scratch_.t, scratch_.scalar, kNoSlot, scratch_.present};
    if (e.present && is_matrix_kind(scratch_.kind)) {
      // Hand the decoded matrix to the pool and take a recycled buffer (of
      // the same geometry once warm) as the next decode target: no copy.
      e.slot = acquire_slot();
      std::swap(pool_[e.slot], scratch_.csi);
    }
    stream(scratch_.kind, scratch_.unit).pending.push_back(e);
  }
}

const TraceSource::Entry* TraceSource::fetch(StreamKind kind,
                                             std::uint32_t unit, double t) {
  Stream& s = stream(kind, unit);
  pump(s, t);
  const double tol = config_.skew_tol_s;
  // Records strictly behind the query were never consumed by a read: in a
  // faithful replay that cannot happen, so strict mode reports skew. Relaxed
  // mode passes over them (keeping the newest as the held value).
  while (!s.pending.empty() && s.pending.front().t < t - tol) {
    if (config_.strict) {
      throw TraceError(TraceError::Code::kTimestampSkew,
                       "strict replay: query for " + at(kind, unit, t) +
                           " skips recorded read at t=" +
                           std::to_string(s.pending.front().t));
    }
    ++counters_.skipped;
    if (s.pending.front().present) make_current(s, s.pending.front());
    s.pending.pop_front();
  }
  if (!s.pending.empty() && s.pending.front().t <= t + tol) {
    // A recorded absence is an answer too: the read was dropped when the
    // trace was made, so the replayed read is dropped identically.
    if (!s.pending.front().present) {
      s.pending.pop_front();
      ++counters_.absent;
      return nullptr;
    }
    make_current(s, s.pending.front());
    s.pending.pop_front();
    ++counters_.served;
    return &s.current;
  }
  // Miss: no recorded read aligns with this query.
  if (config_.strict) {
    throw TraceError(TraceError::Code::kTimestampSkew,
                     "strict replay: no recorded read matches query for " +
                         at(kind, unit, t) + " (tolerance " +
                         std::to_string(tol) + " s)");
  }
  if (s.have_current && config_.max_age_s > 0.0 &&
      t - s.current.t <= config_.max_age_s) {
    ++counters_.held;
    return &s.current;
  }
  ++counters_.missing;
  return nullptr;
}

std::optional<double> TraceSource::fetch_scalar(StreamKind kind,
                                                std::uint32_t unit, double t) {
  if (!has(kind)) return std::nullopt;
  const Entry* rec = fetch(kind, unit, t);
  if (!rec) return std::nullopt;
  return rec->scalar;
}

bool TraceSource::fetch_csi(StreamKind kind, std::uint32_t unit, double t,
                            CsiMatrix& out) {
  if (!has(kind)) return false;
  const Entry* rec = fetch(kind, unit, t);
  if (!rec) return false;
  out = pool_[rec->slot];
  return true;
}

bool TraceSource::csi(std::uint32_t unit, double t, CsiMatrix& out) {
  return fetch_csi(StreamKind::kCsi, unit, t, out);
}

bool TraceSource::csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) {
  return fetch_csi(StreamKind::kCsiFeedback, unit, t, out);
}

bool TraceSource::csi_true(std::uint32_t unit, double t, CsiMatrix& out) {
  return fetch_csi(StreamKind::kTrueCsi, unit, t, out);
}

std::optional<double> TraceSource::rssi_dbm(std::uint32_t unit, double t) {
  return fetch_scalar(StreamKind::kRssi, unit, t);
}

std::optional<double> TraceSource::scan_rssi_dbm(std::uint32_t unit,
                                                 double t) {
  return fetch_scalar(StreamKind::kScanRssi, unit, t);
}

std::optional<double> TraceSource::tof_cycles(std::uint32_t unit, double t) {
  return fetch_scalar(StreamKind::kTof, unit, t);
}

std::optional<double> TraceSource::snr_db(std::uint32_t unit, double t) {
  return fetch_scalar(StreamKind::kSnr, unit, t);
}

std::optional<double> TraceSource::true_distance(std::uint32_t unit,
                                                 double t) {
  return fetch_scalar(StreamKind::kTrueDistance, unit, t);
}

bool TraceSource::feedback_delivered(std::uint32_t unit, double t) {
  if (!has(StreamKind::kFeedbackOk)) return true;
  const Entry* rec = fetch(StreamKind::kFeedbackOk, unit, t);
  return rec == nullptr || rec->scalar != 0.0;
}

}  // namespace mobiwlan::trace
