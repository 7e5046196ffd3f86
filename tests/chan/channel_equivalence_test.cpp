// Golden equivalence: the channel engine (the ChannelBatch kernels every
// per-link entry point runs) must reproduce the original implementation's
// values to 1e-12 across one channel per (mobility class x environmental
// activity) cell — the oracle for the one engine. The fixtures
// were captured from the original multi-pass code (commit afc9ea0) over the
// exact realizations built by make_golden_channel(); the noisy sample()
// snapshots additionally pin the RNG draw order (CSI noise, then RSSI jitter,
// then ToF jitter).
#include <complex>

#include <gtest/gtest.h>

#include "chan/channel_batch.hpp"
#include "channel_golden_cases.hpp"
#include "phy/csi.hpp"

namespace mobiwlan {
namespace {

constexpr std::size_t kEntries = 312;  // 3 tx * 2 rx * 52 sc
constexpr std::size_t kProbes = 16;
constexpr double kSampleTimes[3] = {0.1, 0.6, 1.1};
constexpr double kTrueTime = 2.0;
constexpr double kTol = 1e-12;

struct GoldenFixture {
  double csi_true_re[kEntries];
  double csi_true_im[kEntries];
  double rssi[3];
  double snr[3];
  double tof[3];
  double dist[3];
  double sum_re[3];
  double sum_im[3];
  double mpow[3];
  double probe_re[3][kProbes];
  double probe_im[3][kProbes];
};

#include "channel_golden_fixtures.inc"

class ChannelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChannelEquivalence, MatchesPreRefactorFixture) {
  const std::size_t idx = GetParam();
  SCOPED_TRACE(goldencase::case_name(idx));
  const GoldenFixture& fx = kGoldenFixtures[idx];
  auto ch = goldencase::make_golden_channel(idx);

  // Noiseless synthesis at a time none of the noisy samples use (csi_true
  // draws nothing, so evaluation order vs sample() is irrelevant).
  const CsiMatrix truth = ch->csi_true(kTrueTime);
  ASSERT_EQ(truth.raw().size(), kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    EXPECT_NEAR(truth.raw()[i].real(), fx.csi_true_re[i], kTol) << "entry " << i;
    EXPECT_NEAR(truth.raw()[i].imag(), fx.csi_true_im[i], kTol) << "entry " << i;
  }

  // Three sequential noisy samples: every field and the CSI noise must match,
  // which requires both the synthesis values and the draw order to be intact.
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(::testing::Message() << "sample " << k);
    const ChannelSample s = ch->sample(kSampleTimes[k]);
    EXPECT_NEAR(s.rssi_dbm, fx.rssi[k], kTol);
    EXPECT_NEAR(s.snr_db, fx.snr[k], kTol);
    EXPECT_NEAR(s.tof_cycles, fx.tof[k], kTol);
    EXPECT_NEAR(s.true_distance_m, fx.dist[k], kTol);
    std::complex<double> sum{};
    for (const auto& v : s.csi.raw()) sum += v;
    EXPECT_NEAR(sum.real(), fx.sum_re[k], kTol);
    EXPECT_NEAR(sum.imag(), fx.sum_im[k], kTol);
    EXPECT_NEAR(s.csi.mean_power(), fx.mpow[k], kTol);
    for (std::size_t p = 0; p < kProbes; ++p) {
      const auto v = s.csi.raw()[p * (kEntries / kProbes)];
      EXPECT_NEAR(v.real(), fx.probe_re[k][p], kTol) << "probe " << p;
      EXPECT_NEAR(v.imag(), fx.probe_im[k][p], kTol) << "probe " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, ChannelEquivalence,
                         ::testing::Range<std::size_t>(0, goldencase::kNumCases),
                         [](const auto& param_info) {
                           std::string n = goldencase::case_name(param_info.param);
                           for (char& c : n)
                             if (c == '/') c = '_';
                           return n;
                         });

// The scratch-buffer API must agree with the allocating wrappers on the same
// channel realization (same seed), not just with the historical fixtures.
TEST(ChannelEquivalence, ScratchApiMatchesWrappers) {
  auto a = goldencase::make_golden_channel(7);
  auto b = goldencase::make_golden_channel(7);
  ChannelBatch::Scratch scratch;
  ChannelSample s_into;
  for (int k = 0; k < 5; ++k) {
    const double t = 0.3 * k;
    const ChannelSample s = a->sample(t);
    b->sample_into(t, s_into, scratch);
    EXPECT_EQ(s.rssi_dbm, s_into.rssi_dbm);
    EXPECT_EQ(s.tof_cycles, s_into.tof_cycles);
    EXPECT_EQ(s.snr_db, s_into.snr_db);
    ASSERT_EQ(s.csi.raw().size(), s_into.csi.raw().size());
    for (std::size_t i = 0; i < s.csi.raw().size(); ++i)
      EXPECT_EQ(s.csi.raw()[i], s_into.csi.raw()[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace mobiwlan
