// Zero-allocation contract: once scratch buffers are warm, the steady-state
// hot loops — sample_into / csi_at_into / csi_true_into, the classifier's
// per-packet on_csi step and the live single-link source the MAC loops
// read — must not touch the heap. This binary links the
// counting operator-new hook (mobiwlan_alloc_hook), so any allocation on
// those paths shows up as a nonzero alloc_count() delta.
#include <gtest/gtest.h>

#include "chan/channel_batch.hpp"
#include "channel_golden_cases.hpp"
#include "core/mobility_classifier.hpp"
#include "trace/source.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

TEST(ZeroAlloc, HookIsLinked) { EXPECT_TRUE(alloc_hook_active()); }

TEST(ZeroAlloc, SampleIntoSteadyState) {
  auto ch = goldencase::make_golden_channel(7);  // macro/strong: all paths hot
  ChannelBatch::Scratch scratch;
  ChannelSample s;
  double t = 0.0;
  // Warmup sizes every buffer (CSI matrix, scratch planes, path vector).
  for (int i = 0; i < 8; ++i) {
    ch->sample_into(t, s, scratch);
    t += 0.02;
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 500; ++i) {
    ch->sample_into(t, s, scratch);
    t += 0.02;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(ZeroAlloc, CsiIntoSteadyState) {
  auto ch = goldencase::make_golden_channel(5);
  ChannelBatch::Scratch scratch;
  CsiMatrix noisy, truth;
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    ch->csi_at_into(t, noisy, scratch);
    ch->csi_true_into(t, truth, scratch);
    t += 0.02;
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 500; ++i) {
    ch->csi_at_into(t, noisy, scratch);
    ch->csi_true_into(t, truth, scratch);
    t += 0.02;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(ZeroAlloc, ClassifierCsiAndTofSteadyState) {
  auto ch = goldencase::make_golden_channel(7);
  MobilityClassifier clf;
  ChannelBatch::Scratch scratch;
  CsiMatrix csi;
  double t = 0.0;
  // Warm up past the similarity window and the ToF tracker's buffers.
  for (int i = 0; i < 400; ++i) {
    ch->csi_at_into(t, csi, scratch);
    clf.on_csi(t, csi);
    clf.on_tof(t, ch->tof_cycles(t));
    t += 0.02;
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1000; ++i) {
    ch->csi_at_into(t, csi, scratch);
    clf.on_csi(t, csi);
    clf.on_tof(t, ch->tof_cycles(t));
    t += 0.02;
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(ZeroAlloc, LiveChannelSourceReadsSteadyState) {
  // The per-A-MPDU ground-truth reads of link_sim / latency_sim.
  auto ch = goldencase::make_golden_channel(7);
  trace::LiveChannelSource src(*ch);
  CsiMatrix truth;
  double t = 0.0;
  auto step = [&] {
    ASSERT_TRUE(src.csi_true(0, t, truth));
    ASSERT_TRUE(src.snr_db(0, t).has_value());
    ASSERT_TRUE(src.rssi_dbm(0, t).has_value());
    ASSERT_TRUE(src.tof_cycles(0, t).has_value());
    t += 0.02;
  };
  for (int i = 0; i < 8; ++i) step();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 500; ++i) step();
  EXPECT_EQ(alloc_count() - before, 0u);
}

}  // namespace
}  // namespace mobiwlan
