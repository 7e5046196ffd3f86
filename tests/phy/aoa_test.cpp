// Tests for beamscan AoA estimation (§9 augmentation).
#include "phy/aoa.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>

#include "chan/scenario.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mobiwlan {
namespace {

/// Synthesize a single-path CSI with a known departure angle using the same
/// ULA convention as the channel (element m phase: -pi * m * cos(theta)).
CsiMatrix single_path_csi(double theta, std::size_t n_tx = 3, std::size_t n_rx = 2,
                          std::size_t n_sc = 52) {
  CsiMatrix csi(n_tx, n_rx, n_sc);
  for (std::size_t tx = 0; tx < n_tx; ++tx) {
    const double phase = -std::numbers::pi * static_cast<double>(tx) * std::cos(theta);
    for (std::size_t rx = 0; rx < n_rx; ++rx)
      for (std::size_t sc = 0; sc < n_sc; ++sc)
        csi.at(tx, rx, sc) = std::polar(1.0, phase + 0.1 * static_cast<double>(sc));
  }
  return csi;
}

TEST(AoaTest, RecoversKnownAngles) {
  for (double theta : {0.3, 0.8, 1.2, 1.57, 2.0, 2.7}) {
    const AoaEstimate est = estimate_aoa(single_path_csi(theta));
    EXPECT_NEAR(est.angle_rad, theta, 0.06) << "theta " << theta;
  }
}

TEST(AoaTest, ConeAmbiguityFoldsIntoHalfPlane) {
  // -theta and +theta are indistinguishable on a ULA: both report the fold.
  const AoaEstimate pos = estimate_aoa(single_path_csi(0.9));
  const AoaEstimate neg = estimate_aoa(single_path_csi(-0.9));
  EXPECT_NEAR(pos.angle_rad, neg.angle_rad, 0.03);
}

TEST(AoaTest, PeakRatioHighForSinglePath) {
  const AoaEstimate est = estimate_aoa(single_path_csi(1.0));
  EXPECT_GT(est.peak_ratio, 1.5);
}

TEST(AoaTest, NoisyCsiStillNearTruth) {
  Rng rng(3);
  CsiMatrix csi = single_path_csi(1.1);
  for (auto& v : csi.raw()) v += rng.complex_gaussian(0.02);
  EXPECT_NEAR(estimate_aoa(csi).angle_rad, 1.1, 0.1);
}

TEST(AoaTest, EmptyCsiSafe) {
  const AoaEstimate est = estimate_aoa(CsiMatrix{});
  EXPECT_DOUBLE_EQ(est.angle_rad, 0.0);
  EXPECT_DOUBLE_EQ(est.peak_ratio, 0.0);
}

TEST(AoaTest, DegenerateGridSafe) {
  EXPECT_NO_THROW(estimate_aoa(single_path_csi(1.0), 1));
  EXPECT_DOUBLE_EQ(estimate_aoa(single_path_csi(1.0), 1).peak_ratio, 0.0);
}

TEST(AoaTest, AllZeroCsiReportsNanAngleAndZeroRatio) {
  // A flat zero spectrum has no argmax: the estimate must be rejectable
  // (NaN angle, zero confidence). The pre-fix code reported theta = 0 with
  // peak_ratio = 1.0 — indistinguishable from a weak genuine measurement,
  // which the fusion stage would then blend in.
  const AoaEstimate est = estimate_aoa(CsiMatrix(3, 2, 52));
  EXPECT_TRUE(std::isnan(est.angle_rad));
  EXPECT_DOUBLE_EQ(est.peak_ratio, 0.0);
}

TEST(AoaTest, TinyScaleCsiStillEstimates) {
  // Near-zero but nonzero power must take the normal path: the degenerate
  // branch is for exact zeros only, not a magnitude cliff.
  CsiMatrix csi = single_path_csi(1.2);
  for (auto& v : csi.raw()) v *= 1e-30;
  const AoaEstimate est = estimate_aoa(csi);
  EXPECT_NEAR(est.angle_rad, 1.2, 0.06);
  EXPECT_GT(est.peak_ratio, 1.5);
}

/// The pre-hoist estimator, kept as a reference: the conjugated steering
/// phasor is recomputed by std::polar inside the per-(subcarrier, rx)
/// accumulation, one grid point at a time. The production hoist is pure
/// loop-invariant code motion and its SIMD lanes repeat this operation
/// sequence per grid point, so its output must be bitwise identical to this.
/// The only later addition is the no-power guard at the end (NaN angle,
/// zero ratio), copied from production so degenerate inputs compare too.
AoaEstimate reference_estimate_aoa(const CsiMatrix& csi, int grid_points = 181) {
  AoaEstimate best;
  if (csi.empty() || grid_points < 2) return best;
  double best_power = -1.0;
  double power_sum = 0.0;
  for (int g = 0; g < grid_points; ++g) {
    const double theta =
        std::numbers::pi * static_cast<double>(g) / (grid_points - 1);
    const double phase_step = -std::numbers::pi * std::cos(theta);
    double power = 0.0;
    for (std::size_t sc = 0; sc < csi.n_subcarriers(); ++sc) {
      for (std::size_t rx = 0; rx < csi.n_rx(); ++rx) {
        cplx acc{};
        for (std::size_t tx = 0; tx < csi.n_tx(); ++tx)
          acc += csi.at(tx, rx, sc) *
                 std::conj(std::polar(1.0, phase_step * static_cast<double>(tx)));
        power += std::norm(acc);
      }
    }
    power_sum += power;
    if (power > best_power) {
      best_power = power;
      best.angle_rad = theta;
    }
  }
  const double mean_power = power_sum / grid_points;
  if (mean_power > 0.0) {
    best.peak_ratio = best_power / mean_power;
  } else {
    best.angle_rad = std::numeric_limits<double>::quiet_NaN();
    best.peak_ratio = 0.0;
  }
  return best;
}

TEST(AoaTest, HoistedSteeringBitwiseMatchesReference) {
  // Fixed single-path CSI, then random CSI draws: angle and ratio must
  // match the un-hoisted reference to the last bit.
  for (double theta : {0.2, 1.0, 2.9}) {
    const CsiMatrix csi = single_path_csi(theta);
    const AoaEstimate fast = estimate_aoa(csi);
    const AoaEstimate ref = reference_estimate_aoa(csi);
    EXPECT_EQ(fast.angle_rad, ref.angle_rad) << "theta " << theta;
    EXPECT_EQ(fast.peak_ratio, ref.peak_ratio) << "theta " << theta;
  }
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    CsiMatrix csi(3, 2, 52);
    for (auto& v : csi.raw()) v = rng.complex_gaussian(1.0);
    const AoaEstimate fast = estimate_aoa(csi);
    const AoaEstimate ref = reference_estimate_aoa(csi);
    EXPECT_EQ(fast.angle_rad, ref.angle_rad) << "trial " << trial;
    EXPECT_EQ(fast.peak_ratio, ref.peak_ratio) << "trial " << trial;
  }
}

TEST(AoaTest, WideArrayFallbackBitwiseMatchesReference) {
  // Arrays wider than the hoist cap (16 tx) take the in-loop std::polar
  // fallback, which must agree with the reference just the same.
  Rng rng(13);
  CsiMatrix csi(17, 1, 8);
  for (auto& v : csi.raw()) v = rng.complex_gaussian(1.0);
  const AoaEstimate fast = estimate_aoa(csi);
  const AoaEstimate ref = reference_estimate_aoa(csi);
  EXPECT_EQ(fast.angle_rad, ref.angle_rad);
  EXPECT_EQ(fast.peak_ratio, ref.peak_ratio);
}

/// Restores the SIMD tier override on scope exit.
struct TierGuard {
  explicit TierGuard(int tier) { simd::set_forced_tier(tier); }
  ~TierGuard() { simd::set_forced_tier(-1); }
};

enum class CsiKind { kRandom, kSinglePath, kZero, kInf, kInfBoth, kNan };

const char* kind_name(CsiKind kind) {
  switch (kind) {
    case CsiKind::kRandom: return "random";
    case CsiKind::kSinglePath: return "single-path";
    case CsiKind::kZero: return "zero";
    case CsiKind::kInf: return "inf";
    case CsiKind::kInfBoth: return "inf+inf";
    case CsiKind::kNan: return "nan";
  }
  return "?";
}

/// Sweep inputs. The non-finite kinds plant one bad entry in random CSI:
/// (inf, 0) mid-matrix, (NaN, 0) mid-matrix, and (inf, inf) on tx 0, whose
/// (1, -0) steering phasor sends the complex multiply through __muldc3's
/// infinity recovery — a lane formula alone would report NaN there.
CsiMatrix sweep_csi(CsiKind kind, std::size_t n_tx, std::size_t n_rx,
                    std::size_t n_sc, Rng& rng) {
  if (kind == CsiKind::kSinglePath) return single_path_csi(1.1, n_tx, n_rx, n_sc);
  CsiMatrix csi(n_tx, n_rx, n_sc);
  if (kind == CsiKind::kZero) return csi;
  for (auto& v : csi.raw()) v = rng.complex_gaussian(1.0);
  constexpr double inf = std::numeric_limits<double>::infinity();
  auto& mid = csi.raw()[csi.raw().size() / 2];
  if (kind == CsiKind::kInf) mid = cplx{inf, 0.0};
  if (kind == CsiKind::kNan)
    mid = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
  if (kind == CsiKind::kInfBoth) csi.at(0, n_rx - 1, n_sc / 2) = cplx{inf, inf};
  return csi;
}

TEST(AoaTest, EveryTierBitwiseMatchesReference) {
  // Lanes run across grid points, so the sweep covers grids shorter than,
  // equal to, and straddling the 8-point block and the cached 181 table,
  // arrays up to the 16-tx hoist cap and one past it, and every input kind.
  Rng rng(17);
  int cases = 0;
  for (const int grid : {2, 3, 7, 8, 9, 180, 181, 182, 360})
    for (const std::size_t n_tx : {1, 2, 3, 4, 16, 17})
      for (const std::size_t n_rx : {1, 2})
        for (const std::size_t n_sc : {1, 52})
          for (const CsiKind kind :
               {CsiKind::kRandom, CsiKind::kSinglePath, CsiKind::kZero,
                CsiKind::kInf, CsiKind::kInfBoth, CsiKind::kNan}) {
            const CsiMatrix csi = sweep_csi(kind, n_tx, n_rx, n_sc, rng);
            const AoaEstimate ref = reference_estimate_aoa(csi, grid);
            for (const int tier : {0, 1, 2}) {
              TierGuard guard(tier);
              const AoaEstimate got = estimate_aoa(csi, grid);
              const std::string where =
                  std::string(simd::tier_name(simd::active_tier())) +
                  " grid " + std::to_string(grid) + " " +
                  std::to_string(n_tx) + "x" + std::to_string(n_rx) + "x" +
                  std::to_string(n_sc) + " " + kind_name(kind);
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got.angle_rad),
                        std::bit_cast<std::uint64_t>(ref.angle_rad))
                  << where;
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got.peak_ratio),
                        std::bit_cast<std::uint64_t>(ref.peak_ratio))
                  << where;
              ++cases;
            }
          }
  EXPECT_EQ(cases, 9 * 6 * 2 * 2 * 6 * 3);
}

TEST(AoaTest, ZeroAllocationsFromFirstCall) {
  // The default grid's steering table is a function-local static and every
  // other scratch lives on the stack: not even the first call (which builds
  // the table) may touch the heap, on any tier or grid.
  ASSERT_TRUE(alloc_hook_active());
  Rng rng(23);
  const CsiMatrix csi = sweep_csi(CsiKind::kRandom, 3, 2, 52, rng);
  const CsiMatrix wide = sweep_csi(CsiKind::kRandom, 17, 1, 8, rng);
  const CsiMatrix bad = sweep_csi(CsiKind::kInfBoth, 3, 2, 52, rng);
  const std::uint64_t before = alloc_count();
  for (const int tier : {2, 1, 0}) {
    TierGuard guard(tier);
    for (const int grid : {181, 7, 360}) {
      estimate_aoa(csi, grid);
      estimate_aoa(wide, grid);
      estimate_aoa(bad, grid);
    }
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(AoaTest, TracksLosDirectionOnSimulatedChannel) {
  // On the full multipath channel the LOS usually dominates the scan;
  // across several draws the estimate should track the geometric angle.
  Rng master(7);
  int close = 0;
  const int trials = 12;
  for (int trial = 0; trial < trials; ++trial) {
    Scenario s = make_scenario(MobilityClass::kStatic, master);
    const Vec2 pos = s.trajectory->position(0.0);
    const double truth = std::acos(std::cos(std::atan2(pos.y, pos.x)));
    const AoaEstimate est = estimate_aoa(s.channel->csi_at(0.0));
    if (std::abs(est.angle_rad - truth) < 0.2) ++close;
  }
  EXPECT_GE(close, trials * 2 / 3);
}

TEST(AoaTest, OrbitSweepsTheEstimate) {
  Rng master(9);
  Scenario s = make_circular_scenario(10.0, master);
  const double a0 = estimate_aoa(s.channel->csi_at(0.0)).angle_rad;
  const double a1 = estimate_aoa(s.channel->csi_at(8.0)).angle_rad;
  // ~0.12 rad/s of angular motion over 8 s.
  EXPECT_GT(std::abs(a1 - a0), 0.4);
}

}  // namespace
}  // namespace mobiwlan
