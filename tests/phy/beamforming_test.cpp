// Tests for SU-MRT beamforming and MU-MIMO zero-forcing under stale CSI.
#include "phy/beamforming.hpp"

#include <gtest/gtest.h>

#include "util/alloc_count.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mobiwlan {
namespace {

CsiMatrix random_csi(std::size_t tx, std::size_t rx, std::size_t sc, Rng& rng) {
  CsiMatrix m(tx, rx, sc);
  for (auto& v : m.raw()) v = rng.complex_gaussian();
  return m;
}

TEST(SuBeamformingTest, FreshCsiGivesFullArrayGain) {
  Rng rng(1);
  for (std::size_t n_tx : {2u, 3u, 4u}) {
    const CsiMatrix h = random_csi(n_tx, 1, 52, rng);
    EXPECT_NEAR(su_beamforming_gain_db(h, h), 10.0 * std::log10(n_tx), 1e-9)
        << n_tx << " antennas";
  }
}

TEST(SuBeamformingTest, StaleCsiGainNearZero) {
  Rng rng(2);
  double sum = 0.0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    const CsiMatrix now = random_csi(3, 2, 52, rng);
    const CsiMatrix stale = random_csi(3, 2, 52, rng);
    sum += su_beamforming_gain_db(now, stale);
  }
  // A random beam has expected unit gain -> 0 dB on average.
  EXPECT_NEAR(sum / trials, 0.0, 1.0);
}

TEST(SuBeamformingTest, FreshBeatsStale) {
  Rng rng(3);
  const CsiMatrix now = random_csi(3, 1, 52, rng);
  const CsiMatrix stale = random_csi(3, 1, 52, rng);
  EXPECT_GT(su_beamforming_gain_db(now, now), su_beamforming_gain_db(now, stale));
}

TEST(SuBeamformingTest, PartiallyStaleInBetween) {
  Rng rng(4);
  const CsiMatrix now = random_csi(3, 1, 52, rng);
  CsiMatrix partial = now;
  const CsiMatrix noise = random_csi(3, 1, 52, rng);
  for (std::size_t i = 0; i < partial.raw().size(); ++i)
    partial.raw()[i] = 0.8 * partial.raw()[i] + 0.6 * noise.raw()[i];
  const double g_partial = su_beamforming_gain_db(now, partial);
  EXPECT_LT(g_partial, su_beamforming_gain_db(now, now));
  EXPECT_GT(g_partial, 0.5);
}

TEST(SuBeamformingTest, DimensionMismatchThrows) {
  Rng rng(5);
  const CsiMatrix a = random_csi(3, 1, 52, rng);
  const CsiMatrix b = random_csi(2, 1, 52, rng);
  EXPECT_THROW(su_beamforming_gain_db(a, b), std::invalid_argument);
}

/// The gain formula spelled out over per-row temporaries, as the kernel
/// computed it before it read CSI in place.
double reference_su_gain_db(const CsiMatrix& current, const CsiMatrix& feedback) {
  double gain_sum = 0.0;
  std::size_t count = 0;
  const double n_tx = static_cast<double>(current.n_tx());
  for (std::size_t sc = 0; sc < current.n_subcarriers(); ++sc) {
    for (std::size_t rx = 0; rx < current.n_rx(); ++rx) {
      std::vector<cplx> h(current.n_tx()), w(current.n_tx());
      for (std::size_t tx = 0; tx < current.n_tx(); ++tx) {
        h[tx] = current.at(tx, rx, sc);
        w[tx] = feedback.at(tx, rx, sc);
      }
      const double wn = vector_norm(w);
      if (wn == 0.0) continue;
      for (auto& v : w) v = std::conj(v) / wn;
      cplx dot{};
      for (std::size_t i = 0; i < h.size(); ++i) dot += h[i] * w[i];
      const double h_pow = vector_norm(h) * vector_norm(h);
      if (h_pow == 0.0) continue;
      gain_sum += std::norm(dot) / (h_pow / n_tx);
      ++count;
    }
  }
  if (count == 0) return 0.0;
  return linear_to_db(gain_sum / static_cast<double>(count));
}

TEST(SuBeamformingTest, InPlaceKernelBitwiseMatchesReference) {
  Rng rng(12);
  for (std::size_t n_rx : {1u, 2u}) {
    const CsiMatrix now = random_csi(3, n_rx, 52, rng);
    const CsiMatrix stale = random_csi(3, n_rx, 52, rng);
    EXPECT_EQ(su_beamforming_gain_db(now, stale),
              reference_su_gain_db(now, stale));
    EXPECT_EQ(su_beamforming_gain_db(now, now), reference_su_gain_db(now, now));
  }
}

TEST(SuBeamformingTest, GainIsAllocationFree) {
  ASSERT_TRUE(alloc_hook_active())
      << "link mobiwlan_alloc_hook or the assertion is vacuous";
  Rng rng(13);
  const CsiMatrix now = random_csi(3, 2, 52, rng);
  const CsiMatrix stale = random_csi(3, 2, 52, rng);
  double sink = 0.0;
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 16; ++i) sink += su_beamforming_gain_db(now, stale);
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(MuMimoTest, FreshCsiNearInterferenceFree) {
  // With perfect CSI, ZF nulls cross-talk: each client's SINR approaches its
  // own beamformed SNR; in particular it must be far above 0 dB at snr0=20.
  Rng rng(6);
  std::vector<CsiMatrix> h;
  for (int k = 0; k < 3; ++k) h.push_back(random_csi(3, 1, 52, rng));
  const auto result = mu_mimo_zero_forcing(h, h, {20.0, 20.0, 20.0});
  ASSERT_EQ(result.sinr_db.size(), 3u);
  for (double sinr : result.sinr_db) EXPECT_GT(sinr, 8.0);
}

TEST(MuMimoTest, StaleCsiCreatesInterference) {
  Rng rng(7);
  std::vector<CsiMatrix> now;
  std::vector<CsiMatrix> stale;
  for (int k = 0; k < 3; ++k) {
    now.push_back(random_csi(3, 1, 52, rng));
    stale.push_back(random_csi(3, 1, 52, rng));
  }
  const auto fresh = mu_mimo_zero_forcing(now, now, {20.0, 20.0, 20.0});
  const auto aged = mu_mimo_zero_forcing(now, stale, {20.0, 20.0, 20.0});
  for (int k = 0; k < 3; ++k) EXPECT_GT(fresh.sinr_db[k], aged.sinr_db[k]);
  // Fully stale ZF to 3 clients leaves SIR around 1/(K-1), i.e. low SINR.
  for (int k = 0; k < 3; ++k) EXPECT_LT(aged.sinr_db[k], 6.0);
}

TEST(MuMimoTest, OnlyMobileClientSuffers) {
  // §6.2: "mobility only affects the performance of the mobile client and
  // does not impact the static clients noticeably."
  Rng rng(8);
  std::vector<CsiMatrix> now;
  for (int k = 0; k < 3; ++k) now.push_back(random_csi(3, 1, 52, rng));
  std::vector<CsiMatrix> stale = now;           // clients 0,1 static
  stale[2] = random_csi(3, 1, 52, rng);         // client 2 moved
  const auto r = mu_mimo_zero_forcing(now, stale, {20.0, 20.0, 20.0});
  EXPECT_GT(r.sinr_db[0], r.sinr_db[2]);
  EXPECT_GT(r.sinr_db[1], r.sinr_db[2]);
  // Static clients keep most of their fresh-CSI SINR. Their residual
  // interference comes only from the mobile client's mis-steered beam.
  const auto fresh = mu_mimo_zero_forcing(now, now, {20.0, 20.0, 20.0});
  EXPECT_GT(r.sinr_db[0], fresh.sinr_db[0] - 12.0);
}

TEST(MuMimoTest, HigherSnrHigherSinr) {
  Rng rng(9);
  std::vector<CsiMatrix> h;
  for (int k = 0; k < 2; ++k) h.push_back(random_csi(3, 1, 52, rng));
  const auto lo = mu_mimo_zero_forcing(h, h, {10.0, 10.0});
  const auto hi = mu_mimo_zero_forcing(h, h, {25.0, 25.0});
  for (int k = 0; k < 2; ++k) EXPECT_GT(hi.sinr_db[k], lo.sinr_db[k]);
}

TEST(MuMimoTest, CountMismatchThrows) {
  Rng rng(10);
  std::vector<CsiMatrix> h{random_csi(3, 1, 8, rng)};
  EXPECT_THROW(mu_mimo_zero_forcing(h, {}, {10.0}), std::invalid_argument);
  EXPECT_THROW(mu_mimo_zero_forcing(h, h, {}), std::invalid_argument);
}

TEST(MuMimoTest, MoreClientsThanAntennasThrows) {
  Rng rng(11);
  std::vector<CsiMatrix> h;
  for (int k = 0; k < 4; ++k) h.push_back(random_csi(3, 1, 8, rng));
  std::vector<double> snr(4, 20.0);
  EXPECT_THROW(mu_mimo_zero_forcing(h, h, snr), std::invalid_argument);
}

// Zero-forcing reads receive chain 0 only, so a multi-antenna client (in
// either list) is an error, not a silently truncated channel.
TEST(MuMimoTest, MultiAntennaClientThrows) {
  Rng rng(12);
  const std::vector<CsiMatrix> single{random_csi(3, 1, 8, rng),
                                      random_csi(3, 1, 8, rng)};
  const std::vector<CsiMatrix> dual{random_csi(3, 1, 8, rng),
                                    random_csi(3, 2, 8, rng)};
  const std::vector<double> snr(2, 20.0);
  EXPECT_THROW(mu_mimo_zero_forcing(dual, single, snr), std::invalid_argument);
  EXPECT_THROW(mu_mimo_zero_forcing(single, dual, snr), std::invalid_argument);
}

TEST(MuMimoTest, AntennaCountMismatchThrows) {
  Rng rng(13);
  const std::vector<CsiMatrix> h{random_csi(3, 1, 8, rng),
                                 random_csi(3, 1, 8, rng)};
  const std::vector<CsiMatrix> odd{random_csi(3, 1, 8, rng),
                                   random_csi(2, 1, 8, rng)};
  const std::vector<double> snr(2, 20.0);
  EXPECT_THROW(mu_mimo_zero_forcing(odd, h, snr), std::invalid_argument);
  EXPECT_THROW(mu_mimo_zero_forcing(h, odd, snr), std::invalid_argument);
}

TEST(MuMimoTest, SubcarrierCountMismatchThrows) {
  Rng rng(14);
  const std::vector<CsiMatrix> h{random_csi(3, 1, 8, rng),
                                 random_csi(3, 1, 8, rng)};
  const std::vector<CsiMatrix> odd{random_csi(3, 1, 8, rng),
                                   random_csi(3, 1, 4, rng)};
  const std::vector<double> snr(2, 20.0);
  EXPECT_THROW(mu_mimo_zero_forcing(odd, h, snr), std::invalid_argument);
  EXPECT_THROW(mu_mimo_zero_forcing(h, odd, snr), std::invalid_argument);
}

TEST(MuMimoTest, EmptyClientsOk) {
  EXPECT_TRUE(mu_mimo_zero_forcing({}, {}, {}).sinr_db.empty());
}

class MuMimoClientCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(MuMimoClientCountSweep, FreshZfScalesToClientCount) {
  const int k = GetParam();
  Rng rng(20 + k);
  std::vector<CsiMatrix> h;
  for (int i = 0; i < k; ++i) h.push_back(random_csi(3, 1, 52, rng));
  const std::vector<double> snr(k, 20.0);
  const auto r = mu_mimo_zero_forcing(h, h, snr);
  ASSERT_EQ(r.sinr_db.size(), static_cast<std::size_t>(k));
  for (double s : r.sinr_db) EXPECT_GT(s, 5.0);
}

INSTANTIATE_TEST_SUITE_P(Counts, MuMimoClientCountSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mobiwlan
