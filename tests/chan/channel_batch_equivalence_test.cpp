// channel_batch_equivalence_test — ChannelBatch vs per-link sampling.
//
// Per-link sampling is a batch of one, so the batch range calls must be a
// bitwise drop-in for N independent WirelessChannel::sample_into loops:
// identical RNG draw order per link and identical bits in every output
// (CSI, SNR, RSSI, ToF, distance), however the range is chunked. CMake
// re-runs this binary under MOBIWLAN_FORCE_SCALAR=1 and each forced
// MOBIWLAN_SIMD_TIER, which pins both sides to that tier's kernels.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "channel_golden_cases.hpp"

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

}  // namespace
}  // namespace mobiwlan
