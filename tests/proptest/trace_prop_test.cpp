// Property suite for the MWTR v2 trace format: randomly generated traces
// (random stream sets, unit counts, geometries, cadences, absences) must
// survive a save -> load round trip bitwise — scalars, CSI matrices, flags,
// ordering — and TraceSource must replay every stream in recorded order.
// Streamed replay (bounded look-ahead, pooled CSI payloads, per-stream
// rings) is checked against a reference model that loads the whole trace
// into per-stream vectors: every answer, CSI byte, counter and strict-mode
// throw must agree, under aligned, jittered and skipping query schedules.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "proptest.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

namespace mobiwlan::trace {
namespace {

using proptest::run_cases;

/// Scalar kinds the generator draws from (matrix kinds handled separately).
constexpr StreamKind kScalarKinds[] = {
    StreamKind::kRssi, StreamKind::kTof, StreamKind::kSnr,
    StreamKind::kTrueDistance, StreamKind::kScanRssi, StreamKind::kFeedbackOk};

struct GeneratedTrace {
  TraceHeader header;
  std::vector<TraceRecord> records;  // in write order
};

CsiMatrix random_matrix(Rng& rng, const TraceHeader& h) {
  CsiMatrix m(h.n_tx, h.n_rx, h.n_sc);
  for (std::size_t tx = 0; tx < h.n_tx; ++tx)
    for (std::size_t rx = 0; rx < h.n_rx; ++rx)
      for (std::size_t sc = 0; sc < h.n_sc; ++sc)
        m.at(tx, rx, sc) = cplx(rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0));
  return m;
}

/// Generator knobs. The defaults are the round-trip suite's traces; the
/// replay-model suite asks for longer traces with every matrix kind.
struct Shape {
  int max_records = 60;
  bool all_matrix_kinds = false;
};

/// Draws a random header and a random record sequence that is legal under
/// it: declared streams only, units in range, per-stream non-decreasing
/// timestamps (shared clock with occasional duplicates), ~15% absences.
GeneratedTrace generate(Rng& rng, const Shape& shape = {}) {
  GeneratedTrace g;
  g.header.n_units = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  g.header.n_tx = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  g.header.n_rx = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
  g.header.n_sc = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  g.header.carrier_hz = rng.uniform(2.4e9, 6.0e9);

  std::vector<StreamKind> kinds;
  for (const StreamKind k : kScalarKinds)
    if (rng.uniform(0.0, 1.0) < 0.5) kinds.push_back(k);
  if (shape.all_matrix_kinds) {
    for (const StreamKind k : {StreamKind::kCsi, StreamKind::kTrueCsi,
                               StreamKind::kCsiFeedback})
      if (rng.uniform(0.0, 1.0) < 0.5) kinds.push_back(k);
  } else if (rng.uniform(0.0, 1.0) < 0.5) {
    kinds.push_back(StreamKind::kCsi);
  }
  if (kinds.empty()) kinds.push_back(StreamKind::kRssi);
  for (const StreamKind k : kinds) g.header.stream_mask |= stream_bit(k);

  const int n = rng.uniform_int(1, shape.max_records);
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.8) t += rng.uniform(0.0, 0.05);
    TraceRecord rec;
    rec.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kinds.size()) - 1))];
    rec.unit = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(g.header.n_units) - 1));
    rec.t = t;
    rec.present = rng.uniform(0.0, 1.0) >= 0.15;
    if (rec.present) {
      if (is_matrix_kind(rec.kind))
        rec.csi = random_matrix(rng, g.header);
      else
        rec.scalar = rng.gaussian(0.0, 100.0);
    }
    g.records.push_back(std::move(rec));
  }
  return g;
}

void write_trace(const std::string& path, const GeneratedTrace& g) {
  TraceWriter writer(path, g.header);
  for (const TraceRecord& rec : g.records) {
    if (!rec.present)
      writer.put_absent(rec.kind, rec.unit, rec.t);
    else if (is_matrix_kind(rec.kind))
      writer.put_csi(rec.kind, rec.unit, rec.t, rec.csi);
    else
      writer.put_scalar(rec.kind, rec.unit, rec.t, rec.scalar);
  }
  writer.close();
}

/// Named after the running test as well as the case: ctest runs each
/// TraceProp test in its own process concurrently, and a shared name lets
/// one test remove a file another is still reading.
std::string case_path(int index) {
  return ::testing::TempDir() + "/trace_prop_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(index) + ".mwtr";
}

TEST(TraceProp, SaveLoadRoundTripsBitwise) {
  run_cases("trace save/load round trip", [](Rng& rng, int index) {
    const GeneratedTrace g = generate(rng);
    const std::string path = case_path(index);
    write_trace(path, g);

    TraceReader reader(path);
    EXPECT_EQ(reader.header().stream_mask, g.header.stream_mask);
    EXPECT_EQ(reader.header().n_units, g.header.n_units);
    EXPECT_EQ(reader.header().n_tx, g.header.n_tx);
    EXPECT_EQ(reader.header().n_rx, g.header.n_rx);
    EXPECT_EQ(reader.header().n_sc, g.header.n_sc);
    // Bitwise: the header carrier is a raw f64 round trip.
    EXPECT_EQ(reader.header().carrier_hz, g.header.carrier_hz);

    TraceRecord rec;
    for (std::size_t i = 0; i < g.records.size(); ++i) {
      ASSERT_TRUE(reader.next(rec)) << "record " << i << " missing";
      const TraceRecord& want = g.records[i];
      EXPECT_EQ(rec.kind, want.kind);
      EXPECT_EQ(rec.unit, want.unit);
      EXPECT_EQ(rec.t, want.t);  // bitwise, not approximate
      EXPECT_EQ(rec.present, want.present);
      if (!want.present) continue;
      if (is_matrix_kind(want.kind)) {
        ASSERT_EQ(rec.csi.n_tx(), want.csi.n_tx());
        ASSERT_EQ(rec.csi.n_rx(), want.csi.n_rx());
        ASSERT_EQ(rec.csi.n_subcarriers(), want.csi.n_subcarriers());
        for (std::size_t v = 0; v < rec.csi.raw().size(); ++v)
          EXPECT_EQ(rec.csi.raw()[v], want.csi.raw()[v]);
      } else {
        EXPECT_EQ(rec.scalar, want.scalar);
      }
    }
    EXPECT_FALSE(reader.next(rec)) << "trailing records";
    std::remove(path.c_str());
  });
}

TEST(TraceProp, TraceSourceReplaysEveryStreamInOrder) {
  run_cases("trace source in-order replay", [](Rng& rng, int index) {
    const GeneratedTrace g = generate(rng);
    const std::string path = case_path(index);
    write_trace(path, g);

    // Querying each stream at exactly its recorded times must reproduce the
    // full log: present records by value, absences as nullopt/false.
    TraceSource src(path);  // strict
    CsiMatrix csi;
    for (const TraceRecord& want : g.records) {
      if (is_matrix_kind(want.kind)) {
        const bool got = src.csi(want.unit, want.t, csi);
        EXPECT_EQ(got, want.present);
        if (got) {
          for (std::size_t v = 0; v < csi.raw().size(); ++v)
            EXPECT_EQ(csi.raw()[v], want.csi.raw()[v]);
        }
      } else {
        std::optional<double> got;
        switch (want.kind) {
          case StreamKind::kRssi: got = src.rssi_dbm(want.unit, want.t); break;
          case StreamKind::kTof: got = src.tof_cycles(want.unit, want.t); break;
          case StreamKind::kSnr: got = src.snr_db(want.unit, want.t); break;
          case StreamKind::kTrueDistance:
            got = src.true_distance(want.unit, want.t);
            break;
          case StreamKind::kScanRssi:
            got = src.scan_rssi_dbm(want.unit, want.t);
            break;
          case StreamKind::kFeedbackOk:
            // feedback_delivered collapses the scalar to a bool; absences
            // default to "delivered".
            EXPECT_EQ(src.feedback_delivered(want.unit, want.t),
                      !want.present || want.scalar != 0.0);
            continue;
          default: FAIL() << "unexpected kind"; continue;
        }
        EXPECT_EQ(got.has_value(), want.present);
        if (got) {
          EXPECT_EQ(*got, want.scalar);
        }
      }
    }
    const auto& c = src.counters();
    EXPECT_EQ(c.held, 0u);
    EXPECT_EQ(c.missing, 0u);
    EXPECT_EQ(c.skipped, 0u);
    std::remove(path.c_str());
  });
}

// ---- Streamed replay vs. a whole-trace reference model ---------------------

std::size_t stream_index(const TraceHeader& h, StreamKind kind,
                         std::uint32_t unit) {
  return static_cast<std::size_t>(kind) * h.n_units + unit;
}

/// The replay contract evaluated over the whole trace held in memory: one
/// vector of records and one cursor per (kind, unit) stream. It shares no
/// code with TraceSource's streaming machinery.
class ReferenceReplay {
 public:
  ReferenceReplay(const std::string& path, const TraceSource::Config& cfg)
      : cfg_(cfg) {
    TraceReader reader(path);
    header_ = reader.header();
    logs_.resize(kNumStreamKinds * header_.n_units);
    TraceRecord rec;
    while (reader.next(rec))
      logs_[stream_index(header_, rec.kind, rec.unit)].records.push_back(rec);
  }

  /// The answering record, nullptr for no value; throws kTimestampSkew.
  const TraceRecord* fetch(StreamKind kind, std::uint32_t unit, double t) {
    Log& log = logs_[stream_index(header_, kind, unit)];
    const double tol = cfg_.skew_tol_s;
    auto skew = [] {
      return TraceError(TraceError::Code::kTimestampSkew, "reference skew");
    };
    while (log.cursor < log.records.size() &&
           log.records[log.cursor].t < t - tol) {
      if (cfg_.strict) throw skew();
      ++counters.skipped;
      if (log.records[log.cursor].present) log.current = log.cursor;
      ++log.cursor;
    }
    if (log.cursor < log.records.size() &&
        log.records[log.cursor].t <= t + tol) {
      const std::size_t i = log.cursor++;
      if (!log.records[i].present) {
        ++counters.absent;
        return nullptr;
      }
      ++counters.served;
      log.current = i;
      return &log.records[i];
    }
    if (cfg_.strict) throw skew();
    if (log.current && cfg_.max_age_s > 0.0 &&
        t - log.records[*log.current].t <= cfg_.max_age_s) {
      ++counters.held;
      return &log.records[*log.current];
    }
    ++counters.missing;
    return nullptr;
  }

  TraceSource::Counters counters;

 private:
  struct Log {
    std::vector<TraceRecord> records;
    std::size_t cursor = 0;
    std::optional<std::size_t> current;
  };
  TraceSource::Config cfg_;
  TraceHeader header_;
  std::vector<Log> logs_;
};

struct Query {
  StreamKind kind;
  std::uint32_t unit;
  double t;
};

/// One query's outcome, comparable across the two implementations.
struct Answer {
  bool threw = false;
  bool has = false;
  double scalar = 0.0;
  std::vector<cplx> csi;
};

Answer ask(TraceSource& src, const Query& q, CsiMatrix& csi) {
  Answer a;
  try {
    std::optional<double> v;
    switch (q.kind) {
      case StreamKind::kCsi: a.has = src.csi(q.unit, q.t, csi); break;
      case StreamKind::kTrueCsi: a.has = src.csi_true(q.unit, q.t, csi); break;
      case StreamKind::kCsiFeedback:
        a.has = src.csi_feedback(q.unit, q.t, csi);
        break;
      case StreamKind::kRssi: v = src.rssi_dbm(q.unit, q.t); break;
      case StreamKind::kScanRssi: v = src.scan_rssi_dbm(q.unit, q.t); break;
      case StreamKind::kTof: v = src.tof_cycles(q.unit, q.t); break;
      case StreamKind::kSnr: v = src.snr_db(q.unit, q.t); break;
      case StreamKind::kTrueDistance: v = src.true_distance(q.unit, q.t); break;
      case StreamKind::kFeedbackOk:
        a.has = true;
        a.scalar = src.feedback_delivered(q.unit, q.t) ? 1.0 : 0.0;
        break;
    }
    if (is_matrix_kind(q.kind)) {
      if (a.has) a.csi = csi.raw();
    } else if (q.kind != StreamKind::kFeedbackOk) {
      a.has = v.has_value();
      a.scalar = v.value_or(0.0);
    }
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kTimestampSkew) << e.what();
    a = Answer{};
    a.threw = true;
  }
  return a;
}

Answer ask(ReferenceReplay& ref, const Query& q) {
  Answer a;
  try {
    const TraceRecord* rec = ref.fetch(q.kind, q.unit, q.t);
    if (q.kind == StreamKind::kFeedbackOk) {
      // feedback_delivered: no record (absence, miss) means delivered.
      a.has = true;
      a.scalar = rec == nullptr || rec->scalar != 0.0 ? 1.0 : 0.0;
    } else if (rec != nullptr) {
      a.has = true;
      if (is_matrix_kind(q.kind))
        a.csi = rec->csi.raw();
      else
        a.scalar = rec->scalar;
    }
  } catch (const TraceError&) {
    a.threw = true;
  }
  return a;
}

void expect_same_counters(const TraceSource::Counters& got,
                          const TraceSource::Counters& want) {
  EXPECT_EQ(got.served, want.served);
  EXPECT_EQ(got.absent, want.absent);
  EXPECT_EQ(got.held, want.held);
  EXPECT_EQ(got.missing, want.missing);
  EXPECT_EQ(got.skipped, want.skipped);
}

/// Replays `queries` through TraceSource and the reference side by side and
/// requires identical outcomes (throws, values, CSI bytes) and counters
/// after every query. Returns TraceSource's final counters.
TraceSource::Counters expect_replays_agree(const std::string& path,
                                           const TraceSource::Config& cfg,
                                           const std::vector<Query>& queries) {
  TraceSource src(path, cfg);
  ReferenceReplay ref(path, cfg);
  CsiMatrix csi;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    SCOPED_TRACE(::testing::Message()
                 << "query " << i << ": " << to_string(q.kind) << "/unit "
                 << q.unit << " at t=" << q.t);
    const Answer got = ask(src, q, csi);
    const Answer want = ask(ref, q);
    EXPECT_EQ(got.threw, want.threw);
    EXPECT_EQ(got.has, want.has);
    EXPECT_EQ(got.scalar, want.scalar);
    EXPECT_TRUE(got.csi.size() == want.csi.size() &&
                (got.csi.empty() ||
                 std::memcmp(got.csi.data(), want.csi.data(),
                             got.csi.size() * sizeof(cplx)) == 0))
        << "CSI payload differs";
    expect_same_counters(src.counters(), ref.counters);
    if (::testing::Test::HasFailure()) break;  // report the first divergence
  }
  return src.counters();
}

/// Merges per-stream query lists into one schedule in random order, keeping
/// each stream's own order: interleaved consumers drifting apart.
std::vector<Query> interleave(std::vector<std::vector<Query>> per_stream,
                              Rng& rng) {
  std::vector<Query> out;
  std::vector<std::size_t> next(per_stream.size(), 0);
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < per_stream.size(); ++s)
    if (!per_stream[s].empty()) live.push_back(s);
  while (!live.empty()) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(live.size()) - 1));
    const std::size_t s = live[pick];
    out.push_back(per_stream[s][next[s]++]);
    if (next[s] == per_stream[s].size()) {
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return out;
}

std::vector<std::vector<Query>> queries_per_stream(const GeneratedTrace& g) {
  std::vector<std::vector<Query>> per(kNumStreamKinds * g.header.n_units);
  for (const TraceRecord& rec : g.records)
    per[stream_index(g.header, rec.kind, rec.unit)].push_back(
        {rec.kind, rec.unit, rec.t});
  return per;
}

/// Perturbs each stream's aligned schedule: drops ~20% of the reads (their
/// records get skipped), jitters ~30% by up to twice the tolerance (some
/// still match, some miss), adds reads inside cadence gaps (held or missing)
/// and one read past the stream's end.
std::vector<Query> jittered_queries(const GeneratedTrace& g, double tol,
                                    Rng& rng) {
  std::vector<std::vector<Query>> per = queries_per_stream(g);
  for (std::vector<Query>& stream : per) {
    if (stream.empty()) continue;
    std::vector<Query> out;
    for (const Query& q : stream) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.2) continue;
      Query j = q;
      if (u < 0.5) j.t += rng.uniform(-2.0 * tol, 2.0 * tol);
      out.push_back(j);
      if (rng.uniform(0.0, 1.0) < 0.15) {
        j.t = q.t + rng.uniform(0.0, 0.08);
        out.push_back(j);
      }
    }
    Query end = stream.back();
    end.t += rng.uniform(0.0, 0.2);
    out.push_back(end);
    stream = std::move(out);
  }
  return interleave(std::move(per), rng);
}

constexpr Shape kReplayShape{200, true};

TEST(TraceProp, StrictReplayMatchesReferenceModel) {
  run_cases("trace replay vs reference, strict", [](Rng& rng, int index) {
    const GeneratedTrace g = generate(rng, kReplayShape);
    const std::string path = case_path(index);
    write_trace(path, g);
    // Every stream read at exactly its recorded times, consumers interleaved
    // at random: answers, bytes and counters must all match, and nothing
    // may be skipped, held, missing or thrown.
    const TraceSource::Counters c = expect_replays_agree(
        path, TraceSource::Config{}, interleave(queries_per_stream(g), rng));
    std::uint64_t present = 0;
    for (const TraceRecord& rec : g.records)
      if (rec.present) ++present;
    // One query per record and none threw (a throw moves no counter).
    EXPECT_EQ(c.served, present);
    EXPECT_EQ(c.absent, g.records.size() - present);
    EXPECT_EQ(c.held + c.missing + c.skipped, 0u);
    std::remove(path.c_str());
  });
}

TEST(TraceProp, RelaxedReplayMatchesReferenceModel) {
  run_cases("trace replay vs reference, relaxed", [](Rng& rng, int index) {
    const GeneratedTrace g = generate(rng, kReplayShape);
    const std::string path = case_path(index);
    write_trace(path, g);
    constexpr double kTolerances[] = {1e-9, 0.004, 0.02};
    TraceSource::Config cfg;
    cfg.skew_tol_s = kTolerances[rng.uniform_int(0, 2)];
    cfg.max_age_s = rng.uniform(0.005, 0.1);
    cfg.strict = false;
    const std::vector<Query> queries = jittered_queries(g, cfg.skew_tol_s, rng);
    // Relaxed: skipped, held and missing reads agree one by one, and a held
    // CSI value is the bytes of its own record (a recycled payload slot
    // must never alias a held `current`).
    expect_replays_agree(path, cfg, queries);
    // Strict over the same schedule: the same queries throw.
    cfg.strict = true;
    expect_replays_agree(path, cfg, queries);
    std::remove(path.c_str());
  });
}

}  // namespace
}  // namespace mobiwlan::trace
