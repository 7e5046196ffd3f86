// Tests for the ObservableSource hierarchy: TraceSource replay semantics
// (strict skew detection, relaxed hold-then-decay, recorded-absence replay,
// counters, stream gating, the allocation-free steady state), RecordingSource
// tee behaviour, and FaultedSource composition over a replayed trace. This
// binary links mobiwlan_alloc_hook so the steady-state test can count heap
// allocations.
#include "trace/trace_source.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "chan/scenario.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan::trace {
namespace {

std::string tmp(const char* name) { return ::testing::TempDir() + "/" + name; }

/// Two-unit scalar trace: RSSI at a 0.1 s cadence on both units, one
/// recorded absence on unit 0 at t=0.2, ToF on unit 0 only.
std::string write_scalar_trace(const char* name) {
  const std::string path = tmp(name);
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi) | stream_bit(StreamKind::kTof);
  h.n_units = 2;
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  TraceWriter writer(path, h);
  for (int i = 0; i < 5; ++i) {
    const double t = 0.1 * i;
    if (i == 2)
      writer.put_absent(StreamKind::kRssi, 0, t);
    else
      writer.put_scalar(StreamKind::kRssi, 0, t, -50.0 - i);
    writer.put_scalar(StreamKind::kRssi, 1, t, -60.0 - i);
    writer.put_scalar(StreamKind::kTof, 0, t, 400.0 + i);
  }
  writer.close();
  return path;
}

TEST(TraceSourceTest, StrictReplayServesRecordedReads) {
  const std::string path = write_scalar_trace("src_strict.mwtr");
  TraceSource src(path);
  EXPECT_EQ(src.n_units(), 2u);
  EXPECT_TRUE(src.has(StreamKind::kRssi));
  EXPECT_FALSE(src.has(StreamKind::kCsi));
  EXPECT_EQ(src.rssi_dbm(0, 0.0), -50.0);
  EXPECT_EQ(src.rssi_dbm(1, 0.0), -60.0);
  EXPECT_EQ(src.tof_cycles(0, 0.0), 400.0);
  EXPECT_EQ(src.rssi_dbm(0, 0.1), -51.0);
  EXPECT_EQ(src.counters().served, 4u);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RecordedAbsenceReplaysAsAbsent) {
  const std::string path = write_scalar_trace("src_absent.mwtr");
  TraceSource src(path);
  EXPECT_TRUE(src.rssi_dbm(0, 0.0));
  EXPECT_TRUE(src.rssi_dbm(0, 0.1));
  EXPECT_FALSE(src.rssi_dbm(0, 0.2));  // the dropped export, replayed
  EXPECT_EQ(src.rssi_dbm(0, 0.3), -53.0);
  EXPECT_EQ(src.counters().absent, 1u);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, StrictThrowsOnSkippedRecord) {
  const std::string path = write_scalar_trace("src_skip.mwtr");
  TraceSource src(path);
  EXPECT_TRUE(src.rssi_dbm(0, 0.0));
  try {
    (void)src.rssi_dbm(0, 0.35);  // would silently pass over t=0.1..0.3
    FAIL() << "skipped records accepted in strict mode";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kTimestampSkew);
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, StrictThrowsOnUnmatchedQuery) {
  const std::string path = write_scalar_trace("src_unmatched.mwtr");
  TraceSource src(path);
  try {
    (void)src.rssi_dbm(0, 0.05);  // between records: no read at this time
    FAIL() << "unmatched query accepted in strict mode";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kTimestampSkew);
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RelaxedCountsSkippedAndMissing) {
  const std::string path = write_scalar_trace("src_relaxed.mwtr");
  TraceSource::Config cfg;
  cfg.strict = false;
  TraceSource src(path, cfg);
  EXPECT_EQ(src.rssi_dbm(0, 0.35), std::nullopt);  // no hold configured
  EXPECT_GT(src.counters().skipped, 0u);
  EXPECT_EQ(src.counters().missing, 1u);
  EXPECT_EQ(src.rssi_dbm(0, 0.4), -54.0);  // stream still consumable
  std::remove(path.c_str());
}

TEST(TraceSourceTest, RelaxedHoldServesRecentRecordThenDecays) {
  const std::string path = write_scalar_trace("src_hold.mwtr");
  TraceSource::Config cfg;
  cfg.strict = false;
  cfg.max_age_s = 0.15;
  TraceSource src(path, cfg);
  EXPECT_EQ(src.rssi_dbm(0, 0.1), -51.0);
  // 0.22 matches no record (the t=0.2 read was an absence) but the t=0.1
  // value is younger than max_age_s, so it is held...
  EXPECT_EQ(src.rssi_dbm(0, 0.22), -51.0);
  EXPECT_EQ(src.counters().held, 1u);
  // ...while far past the last record the hold expires: gaps decay, they are
  // never interpolated or extended forever.
  EXPECT_EQ(src.rssi_dbm(0, 2.0), std::nullopt);
  EXPECT_GT(src.counters().missing, 0u);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, IgnoreMaskHidesStreamAndRequireRefuses) {
  const std::string path = write_scalar_trace("src_ignore.mwtr");
  TraceSource::Config cfg;
  cfg.ignore_mask = stream_bit(StreamKind::kTof);
  TraceSource src(path, cfg);
  EXPECT_FALSE(src.has(StreamKind::kTof));
  EXPECT_EQ(src.tof_cycles(0, 0.0), std::nullopt);
  try {
    src.require({StreamKind::kRssi, StreamKind::kTof}, "test consumer");
    FAIL() << "require() accepted a hidden stream";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.code(), TraceError::Code::kMissingStream);
  }
  // The un-hidden stream alone passes.
  src.require({StreamKind::kRssi}, "test consumer");
  std::remove(path.c_str());
}

TEST(TraceSourceTest, FeedbackDefaultsToDeliveredWithoutStream) {
  const std::string path = write_scalar_trace("src_fb.mwtr");
  TraceSource src(path);
  EXPECT_TRUE(src.feedback_delivered(0, 0.0));  // no kFeedbackOk stream
  std::remove(path.c_str());
}

TEST(TraceSourceTest, FeedbackOkStreamReplaysOutcomes) {
  const std::string path = tmp("src_fbok.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kFeedbackOk);
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    writer.put_scalar(StreamKind::kFeedbackOk, 0, 0.0, 1.0);
    writer.put_scalar(StreamKind::kFeedbackOk, 0, 0.1, 0.0);
    writer.close();
  }
  TraceSource src(path);
  EXPECT_TRUE(src.feedback_delivered(0, 0.0));
  EXPECT_FALSE(src.feedback_delivered(0, 0.1));
  std::remove(path.c_str());
}

TEST(TraceSourceTest, StrongestUnitIsFirstWinsArgmax) {
  const std::string path = tmp("src_argmax.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kScanRssi);
  h.n_units = 3;
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    writer.put_scalar(StreamKind::kScanRssi, 0, 0.0, -70.0);
    writer.put_scalar(StreamKind::kScanRssi, 1, 0.0, -55.0);
    writer.put_scalar(StreamKind::kScanRssi, 2, 0.0, -55.0);  // tie: 1 wins
    writer.close();
  }
  TraceSource src(path);
  EXPECT_EQ(src.strongest_unit(0.0), 1u);
  std::remove(path.c_str());
}

// ---- Steady-state allocations ----------------------------------------------

// A crowd-shaped trace at the paper's 3x2x52 geometry. Each epoch logs, kind
// by kind, every unit's RSSI, then two CSI reads per unit at the same instant
// (two APs hearing it: duplicate timestamps), then five ToF reads per unit.
// The consumer walks unit by unit, so other units' records queue while it
// reads. Unit 1 goes dark for epochs [kGapBegin, kGapEnd): its RSSI is
// recorded absent and its CSI stream has a multi-epoch gap.
constexpr std::uint32_t kCrowdUnits = 3;
constexpr int kCrowdEpochs = 64;
constexpr int kCsiPerEpoch = 2;
constexpr int kTofPerEpoch = 5;
constexpr int kGapBegin = 30;
constexpr int kGapEnd = 36;

double epoch_time(int e) { return 0.5 * e; }
double tof_time(int e, int i) { return epoch_time(e) + 0.02 * i; }
bool dark(std::uint32_t unit, int e) {
  return unit == 1 && e >= kGapBegin && e < kGapEnd;
}

struct CrowdTrace {
  std::string path;
  std::uint64_t present = 0;
  std::uint64_t absent = 0;
};

CrowdTrace write_crowd_trace(const char* name) {
  CrowdTrace out{tmp(name)};
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kCsi) |
                  stream_bit(StreamKind::kRssi) | stream_bit(StreamKind::kTof);
  h.n_units = kCrowdUnits;
  h.n_tx = 3;
  h.n_rx = 2;
  h.n_sc = 52;
  TraceWriter writer(out.path, h);
  CsiMatrix csi(h.n_tx, h.n_rx, h.n_sc);
  for (int e = 0; e < kCrowdEpochs; ++e) {
    const double t = epoch_time(e);
    for (std::uint32_t u = 0; u < kCrowdUnits; ++u) {
      if (dark(u, e)) {
        writer.put_absent(StreamKind::kRssi, u, t);
        ++out.absent;
      } else {
        writer.put_scalar(StreamKind::kRssi, u, t, -50.0 - u - 0.01 * e);
        ++out.present;
      }
    }
    for (std::uint32_t u = 0; u < kCrowdUnits; ++u) {
      if (dark(u, e)) continue;
      for (int k = 0; k < kCsiPerEpoch; ++k) {
        for (std::size_t v = 0; v < csi.raw().size(); ++v)
          csi.raw()[v] = cplx(e + 0.001 * v, u + 0.1 * k);
        writer.put_csi(StreamKind::kCsi, u, t, csi);
        ++out.present;
      }
    }
    for (std::uint32_t u = 0; u < kCrowdUnits; ++u) {
      for (int i = 0; i < kTofPerEpoch; ++i) {
        writer.put_scalar(StreamKind::kTof, u, tof_time(e, i), 400.0 + e + i);
        ++out.present;
      }
    }
  }
  writer.close();
  return out;
}

/// Reads one epoch the way the localization replay does: per unit its RSSI,
/// the CSI of each hearing AP when it was heard, then its ToF readings.
/// Returns the number of reads that came back other than recorded.
int replay_crowd_epoch(TraceSource& src, int e, CsiMatrix& csi) {
  const double t = epoch_time(e);
  int wrong = 0;
  for (std::uint32_t u = 0; u < kCrowdUnits; ++u) {
    const bool heard = src.rssi_dbm(u, t).has_value();
    if (heard == dark(u, e)) ++wrong;
    if (heard) {
      for (int k = 0; k < kCsiPerEpoch; ++k) {
        if (!src.csi(u, t, csi) || csi.raw()[0] != cplx(e, u + 0.1 * k))
          ++wrong;
      }
    }
    for (int i = 0; i < kTofPerEpoch; ++i)
      if (src.tof_cycles(u, tof_time(e, i)) != 400.0 + e + i) ++wrong;
  }
  return wrong;
}

TEST(TraceSourceTest, SteadyStateReplayIsAllocationFree) {
  ASSERT_TRUE(alloc_hook_active())
      << "link mobiwlan_alloc_hook or the steady-state assertion is vacuous";
  const CrowdTrace trace = write_crowd_trace("src_zero_alloc.mwtr");
  TraceSource src(trace.path);  // strict
  CsiMatrix csi;
  // Warm-up: the stream rings, the payload pool, the reader's chunk buffer
  // and `csi` reach their steady sizes.
  constexpr int kWarmEpochs = 8;
  int wrong = 0;
  for (int e = 0; e < kWarmEpochs; ++e) wrong += replay_crowd_epoch(src, e, csi);

  // The measured epochs span the gap and the chunk boundaries after it.
  const std::uint64_t before = alloc_count();
  for (int e = kWarmEpochs; e < kCrowdEpochs; ++e)
    wrong += replay_crowd_epoch(src, e, csi);
  const std::uint64_t allocs = alloc_count() - before;

  EXPECT_EQ(allocs, 0u) << "strict replay allocated after warm-up";
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(src.counters().served, trace.present);
  EXPECT_EQ(src.counters().absent, trace.absent);
  EXPECT_EQ(src.counters().missing, 0u);
  EXPECT_EQ(src.counters().skipped, 0u);
  std::remove(trace.path.c_str());
}

// ---- RecordingSource -------------------------------------------------------

TEST(RecordingSourceTest, TeeRecordsEveryReadIncludingAbsences) {
  Rng rng(7);
  Scenario s = make_scenario(MobilityClass::kMicro, rng);
  const std::string path = tmp("rec_tee.mwtr");
  FaultPlan plan;
  plan.rssi.drop_prob = 0.5;
  plan.seed = 99;
  {
    LiveChannelSource live(*s.channel);
    FaultedSource faulted(live, plan);
    TraceWriter writer(path,
                       RecordingSource::header_for(faulted, ChannelConfig{}));
    RecordingSource rec(faulted, writer);
    std::size_t present = 0;
    for (int i = 0; i < 50; ++i)
      if (rec.rssi_dbm(0, 0.01 * i)) ++present;
    // 50% drops: some reads must have gone each way.
    EXPECT_GT(present, 0u);
    EXPECT_LT(present, 50u);
    writer.close();
    EXPECT_EQ(writer.records_written(), 50u);  // absences recorded too
  }
  // The replay reproduces the same present/absent pattern and values.
  Rng rng2(7);
  Scenario s2 = make_scenario(MobilityClass::kMicro, rng2);
  LiveChannelSource live2(*s2.channel);
  FaultedSource faulted2(live2, plan);
  TraceSource replay(path);
  for (int i = 0; i < 50; ++i) {
    const double t = 0.01 * i;
    EXPECT_EQ(replay.rssi_dbm(0, t), faulted2.rssi_dbm(0, t)) << "i=" << i;
  }
  std::remove(path.c_str());
}

TEST(RecordingSourceTest, HeaderMaskMirrorsInnerSource) {
  Rng rng(3);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  LiveChannelSource live(*s.channel);
  const TraceHeader h = RecordingSource::header_for(live, ChannelConfig{});
  EXPECT_EQ(h.n_units, 1u);
  for (std::size_t k = 0; k < kNumStreamKinds; ++k) {
    const StreamKind kind = static_cast<StreamKind>(k);
    EXPECT_EQ(h.has(kind), live.has(kind)) << to_string(kind);
  }
  const ChannelConfig cfg;
  EXPECT_EQ(h.n_tx, cfg.n_tx);
  EXPECT_EQ(h.n_rx, cfg.n_rx);
  EXPECT_EQ(h.n_sc, cfg.n_subcarriers);
}

// ---- FaultedSource over a replayed trace -----------------------------------

TEST(FaultedSourceTest, CompositionOverReplayIsDeterministic) {
  const std::string path = tmp("fault_compose.mwtr");
  TraceHeader h;
  h.stream_mask = stream_bit(StreamKind::kRssi);
  h.n_tx = 1;
  h.n_rx = 1;
  h.n_sc = 1;
  {
    TraceWriter writer(path, h);
    for (int i = 0; i < 100; ++i)
      writer.put_scalar(StreamKind::kRssi, 0, 0.01 * i, -50.0 - 0.1 * i);
    writer.close();
  }
  FaultPlan plan;
  plan.rssi.drop_prob = 0.3;
  plan.seed = 42;
  auto run = [&] {
    TraceSource::Config cfg;
    cfg.strict = false;  // replay-time drops skip recorded reads
    TraceSource replay(path, cfg);
    FaultedSource faulted(replay, plan);
    std::vector<std::optional<double>> out;
    for (int i = 0; i < 100; ++i) out.push_back(faulted.rssi_dbm(0, 0.01 * i));
    return out;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  std::size_t dropped = 0;
  for (const auto& v : a)
    if (!v) ++dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 100u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mobiwlan::trace
