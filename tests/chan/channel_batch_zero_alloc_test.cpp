// channel_batch_zero_alloc_test — the batched engine's allocation contract.
//
// Links the counting operator-new replacement (mobiwlan_alloc_hook) and
// asserts that once the scratch planes have grown to the batch's working
// set, the range-sampling, single-link CSI, ToF-sweep and roaming-scan
// entry points never touch the heap again. This is what lets the runtime
// loops call the batch at measurement cadence without allocator traffic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "channel_golden_cases.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

using goldencase::kNumCases;

struct BatchFixture : ::testing::Test {
  void SetUp() override {
    ASSERT_TRUE(alloc_hook_active())
        << "counting allocator not linked; test would vacuously pass";
    for (std::size_t idx = 0; idx < kNumCases; ++idx) {
      links.push_back(goldencase::make_golden_channel(idx));
      batch.add_link(links.back().get());
    }
  }

  std::vector<std::unique_ptr<WirelessChannel>> links;
  ChannelBatch batch;
  ChannelBatch::Scratch scratch;
};

TEST_F(BatchFixture, SampleRangeSteadyStateIsAllocationFree) {
  std::vector<ChannelSample> out(kNumCases);
  double t = 0.0;
  for (int pass = 0; pass < 3; ++pass) {  // grow scratch + out CSI matrices
    batch.sample_range(t, 0, kNumCases, out.data(), scratch);
    t += 0.001;
  }
  const std::uint64_t before = alloc_count();
  for (int pass = 0; pass < 32; ++pass) {
    batch.sample_range(t, 0, kNumCases, out.data(), scratch);
    t += 0.001;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST_F(BatchFixture, SingleLinkCsiSteadyStateIsAllocationFree) {
  CsiMatrix meas;
  CsiMatrix truth;
  double t = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    batch.link(pass % kNumCases).csi_at_into(t, meas, scratch);
    batch.link(pass % kNumCases).csi_true_into(t, truth, scratch);
    t += 0.001;
  }
  const std::uint64_t before = alloc_count();
  for (int pass = 0; pass < 32; ++pass) {
    batch.link(pass % kNumCases).csi_at_into(t, meas, scratch);
    batch.link(pass % kNumCases).csi_true_into(t, truth, scratch);
    t += 0.001;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST_F(BatchFixture, SweepAndScanSteadyStateAreAllocationFree) {
  std::vector<double> sweep(kNumCases);
  double t = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    batch.tof_all(t, sweep.data());
    (void)batch.strongest_link(t, scratch);
    t += 0.001;
  }
  const std::uint64_t before = alloc_count();
  for (int pass = 0; pass < 32; ++pass) {
    batch.tof_all(t, sweep.data());
    (void)batch.strongest_link(t, scratch);
    t += 0.001;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

}  // namespace
}  // namespace mobiwlan
