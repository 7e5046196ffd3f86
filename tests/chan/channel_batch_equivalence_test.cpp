// channel_batch_equivalence_test — ChannelBatch vs per-link sampling.
//
// Per-link sampling is a batch of one, so the batch range calls must be a
// bitwise drop-in for N independent WirelessChannel::sample_into loops:
// identical RNG draw order per link and identical bits in every output
// (CSI, SNR, RSSI, ToF, distance), however the range is chunked and on
// however many threads the chunks run. CMake re-runs this binary under
// MOBIWLAN_FORCE_SCALAR=1 and each forced MOBIWLAN_SIMD_TIER, which pins
// both sides to that tier's kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/trajectory.hpp"
#include "channel_golden_cases.hpp"
#include "runtime/experiment.hpp"
#include "runtime/thread_pool.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

using goldencase::kNumCases;
using goldencase::make_golden_channel;

/// Two independent, identical realizations of the 8 golden channels: one
/// registered with a batch, one sampled per link. Both sides draw from
/// their own RNG state, so lockstep call sequences keep them comparable.
struct GoldenPair {
  std::vector<std::unique_ptr<WirelessChannel>> batch_links;
  std::vector<std::unique_ptr<WirelessChannel>> ref_links;
  ChannelBatch batch;

  GoldenPair() {
    for (std::size_t idx = 0; idx < kNumCases; ++idx) {
      batch_links.push_back(make_golden_channel(idx));
      ref_links.push_back(make_golden_channel(idx));
      batch.add_link(batch_links.back().get());
    }
  }
};

void expect_csi_equal(const CsiMatrix& got, const CsiMatrix& want,
                      const char* what, std::size_t link) {
  ASSERT_EQ(got.raw().size(), want.raw().size());
  for (std::size_t k = 0; k < want.raw().size(); ++k) {
    EXPECT_EQ(got.raw()[k].real(), want.raw()[k].real())
        << what << " link " << link << " element " << k;
    EXPECT_EQ(got.raw()[k].imag(), want.raw()[k].imag())
        << what << " link " << link << " element " << k;
  }
}

TEST(ChannelBatchEquivalence, SampleRangeMatchesPerLinkLoop) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  std::vector<ChannelSample> out(kNumCases);
  ChannelBatch::Scratch ref_scratch;
  ChannelSample ref;

  for (const double t : {0.0, 0.25, 0.5, 1.0, 2.0, 3.5}) {
    g.batch.sample_range(t, 0, kNumCases, out.data(), scratch);
    for (std::size_t i = 0; i < kNumCases; ++i) {
      g.ref_links[i]->sample_into(t, ref, ref_scratch);
      SCOPED_TRACE(::testing::Message()
                   << goldencase::case_name(i) << " at t=" << t);
      EXPECT_EQ(out[i].rssi_dbm, ref.rssi_dbm);
      EXPECT_EQ(out[i].tof_cycles, ref.tof_cycles);
      EXPECT_EQ(out[i].snr_db, ref.snr_db);
      EXPECT_EQ(out[i].t, ref.t);
      EXPECT_EQ(out[i].true_distance_m, ref.true_distance_m);
      expect_csi_equal(out[i].csi, ref.csi, "sample_range", i);
    }
  }
}

TEST(ChannelBatchEquivalence, SubrangeSamplingMatches) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  std::vector<ChannelSample> out(kNumCases);
  ChannelBatch::Scratch ref_scratch;
  ChannelSample ref;

  // Two disjoint ranges cover the batch; the per-link results must not
  // depend on how the caller chunks the range (the sharding contract).
  g.batch.sample_range(1.0, 0, 3, out.data(), scratch);
  g.batch.sample_range(1.0, 3, kNumCases, out.data(), scratch);
  for (std::size_t i = 0; i < kNumCases; ++i) {
    g.ref_links[i]->sample_into(1.0, ref, ref_scratch);
    SCOPED_TRACE(goldencase::case_name(i));
    EXPECT_EQ(out[i].rssi_dbm, ref.rssi_dbm);
    EXPECT_EQ(out[i].tof_cycles, ref.tof_cycles);
    EXPECT_EQ(out[i].snr_db, ref.snr_db);
    EXPECT_EQ(out[i].true_distance_m, ref.true_distance_m);
    expect_csi_equal(out[i].csi, ref.csi, "subrange", i);
  }
}

TEST(ChannelBatchEquivalence, MeasuredAndTrueCsiMatch) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  CsiMatrix got;
  CsiMatrix want;
  ChannelBatch::Scratch ref_scratch;

  for (std::size_t i = 0; i < kNumCases; ++i) {
    SCOPED_TRACE(goldencase::case_name(i));
    g.batch.link(i).csi_at_into(0.75, got, scratch);
    g.ref_links[i]->csi_at_into(0.75, want, ref_scratch);
    expect_csi_equal(got, want, "csi_at_into", i);

    g.batch.link(i).csi_true_into(2.0, got, scratch);
    g.ref_links[i]->csi_true_into(2.0, want, ref_scratch);
    expect_csi_equal(got, want, "csi_true_into", i);

    // The scratch and by-value SNR overloads run the same geometry pass.
    EXPECT_EQ(g.batch.link(i).snr_db(1.25, scratch),
              g.ref_links[i]->snr_db(1.25));
  }
}

TEST(ChannelBatchEquivalence, TofSweepMatchesPerLinkReadings) {
  GoldenPair g;
  std::vector<double> sweep(kNumCases);
  for (const double t : {0.5, 1.5}) {
    g.batch.tof_all(t, sweep.data());
    for (std::size_t i = 0; i < kNumCases; ++i) {
      SCOPED_TRACE(goldencase::case_name(i));
      EXPECT_EQ(sweep[i], g.ref_links[i]->tof_cycles(t));
    }
  }
}

TEST(ChannelBatchEquivalence, StrongestLinkMatchesArgmaxScan) {
  GoldenPair g;
  ChannelBatch::Scratch scratch;
  for (const double t : {0.0, 1.0, 4.0}) {
    const std::size_t got = g.batch.strongest_link(t, scratch);
    std::size_t want = 0;
    double best = -1e9;
    for (std::size_t i = 0; i < kNumCases; ++i) {
      const double rssi = g.ref_links[i]->rssi_dbm(t);
      if (rssi > best) {
        best = rssi;
        want = i;
      }
    }
    EXPECT_EQ(got, want) << "t=" << t;
  }
}

// The 64-AP x 512-client floor the scale_batch_sample perf case times:
// an 8x8 AP grid at 30 m pitch, every client an independent scatterer field
// walking at 1.2 m/s from a random start near its AP.
constexpr std::size_t kApsPerSide = 8;
constexpr std::size_t kNumAps = kApsPerSide * kApsPerSide;
constexpr double kApPitchM = 30.0;
constexpr std::size_t kFloorLinks = 512;
constexpr std::size_t kShardGrain = 64;

/// Builds the floor through Experiment::shard on `pool`, seeded at
/// kMasterSeed; chunk-keyed substreams make it identical on any pool.
std::vector<std::unique_ptr<WirelessChannel>> build_floor(
    runtime::ThreadPool& pool) {
  runtime::Experiment exp(pool, runtime::kMasterSeed);
  std::vector<std::unique_ptr<WirelessChannel>> links(kFloorLinks);
  exp.shard(kFloorLinks, kShardGrain,
            [&](std::size_t begin, std::size_t end, Rng& rng) {
              for (std::size_t i = begin; i < end; ++i) {
                const std::size_t ap = i % kNumAps;
                const Vec2 ap_pos{
                    static_cast<double>(ap % kApsPerSide) * kApPitchM,
                    static_cast<double>(ap / kApsPerSide) * kApPitchM};
                ChannelConfig cfg;
                cfg.activity = (i % 2 == 0) ? EnvironmentalActivity::kStrong
                                            : EnvironmentalActivity::kWeak;
                const Vec2 start{ap_pos.x + rng.uniform(-12.0, 12.0),
                                 ap_pos.y + rng.uniform(-12.0, 12.0)};
                const double heading =
                    rng.uniform(0.0, 2.0 * std::numbers::pi);
                auto traj = std::make_shared<LinearTrajectory>(
                    start, Vec2{std::cos(heading), std::sin(heading)}, 1.2);
                links[i] = std::make_unique<WirelessChannel>(
                    cfg, ap_pos, std::move(traj), rng.split());
              }
            });
  return links;
}

// One pass over the floor, sharded with ThreadPool::parallel_for (grain 64,
// one Scratch per slot), must equal a serial sample_into loop over an
// independently built copy bit for bit. The pooled copy is built and
// sampled on pools of width 1, 2 and 8, the serial copy on width 1, so the
// check also covers construction across pool widths. After one warm-up
// pass, full-range passes must not allocate at all.
TEST(ChannelBatchEquivalence, PoolShardedPassMatchesSerialLoop) {
  ASSERT_TRUE(alloc_hook_active())
      << "counting allocator not linked; the allocation check would be "
         "vacuous";
  for (const std::size_t width : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "pool width " << width);
    runtime::ThreadPool pool(width);
    const auto links = build_floor(pool);
    runtime::ThreadPool serial_pool(1);
    const auto ref_links = build_floor(serial_pool);
    ChannelBatch batch;
    for (const auto& ch : links) batch.add_link(ch.get());

    std::vector<ChannelBatch::Scratch> scratches(pool.size() + 1);
    std::vector<ChannelSample> out(kFloorLinks);
    ChannelBatch::Scratch ref_scratch;
    ChannelSample ref;
    for (const double t : {0.25, 0.5, 0.75, 1.0}) {
      pool.parallel_for(kFloorLinks, kShardGrain,
                        [&](std::size_t slot, std::size_t begin,
                            std::size_t end) {
                          batch.sample_range(t, begin, end, out.data(),
                                             scratches[slot]);
                        });
      for (std::size_t i = 0; i < kFloorLinks; ++i) {
        ref_links[i]->sample_into(t, ref, ref_scratch);
        const ChannelSample& got = out[i];
        ASSERT_EQ(got.csi.raw().size(), ref.csi.raw().size());
        EXPECT_EQ(std::memcmp(got.csi.raw().data(), ref.csi.raw().data(),
                              ref.csi.raw().size() * sizeof(cplx)),
                  0)
            << "CSI of link " << i << " at t=" << t;
        EXPECT_EQ(got.rssi_dbm, ref.rssi_dbm) << "link " << i << " t=" << t;
        EXPECT_EQ(got.tof_cycles, ref.tof_cycles) << "link " << i << " t=" << t;
        EXPECT_EQ(got.snr_db, ref.snr_db) << "link " << i << " t=" << t;
        EXPECT_EQ(got.true_distance_m, ref.true_distance_m)
            << "link " << i << " t=" << t;
      }
    }

    // The pooled passes sized each slot's scratch for some chunks only; one
    // full-range warm-up pass sizes scratches[0] for every link.
    double t = 2.0;
    batch.sample_range(t, 0, kFloorLinks, out.data(), scratches[0]);
    const std::uint64_t before = alloc_count();
    for (int pass = 0; pass < 8; ++pass) {
      t += 0.001;
      batch.sample_range(t, 0, kFloorLinks, out.data(), scratches[0]);
    }
    EXPECT_EQ(alloc_count() - before, 0u);
  }
}

}  // namespace
}  // namespace mobiwlan
