#include "phy/aoa.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>

#include "util/simd.hpp"

namespace mobiwlan {

namespace {

// Grid points per block: one AVX-512 register, two AVX2 registers, or one
// pass of the portable 8-lane loop.
constexpr std::size_t kLanes = 8;
// Widest array whose steering rows are precomputed (table or stack block).
// No deployed config comes close; wider arrays take the std::complex loop.
constexpr std::size_t kMaxHoistedTx = 16;
// The default grid (estimate_aoa's default argument) has a cached table.
constexpr int kDefaultGrid = 181;
constexpr std::size_t kPaddedGrid =
    (kDefaultGrid + kLanes - 1) / kLanes * kLanes;

double grid_theta(int g, int grid_points) {
  return std::numbers::pi * static_cast<double>(g) / (grid_points - 1);
}

// Steering vector matching the channel synthesis convention: element m
// contributes a phase of -pi * m * cos(theta).
double grid_phase_step(int g, int grid_points) {
  return -std::numbers::pi * std::cos(grid_theta(g, grid_points));
}

cplx steering_conj(double phase_step, std::size_t tx) {
  return std::conj(std::polar(1.0, phase_step * static_cast<double>(tx)));
}

/// Writes the conjugated steering phasors of grid point g into one column
/// of tx-major planes (row tx at re/im + tx * stride).
void fill_steering_column(int g, int grid_points, std::size_t n_tx, double* re,
                          double* im, std::size_t stride) {
  const double phase_step = grid_phase_step(g, grid_points);
  for (std::size_t tx = 0; tx < n_tx; ++tx) {
    const cplx s = steering_conj(phase_step, tx);
    re[tx * stride] = s.real();
    im[tx * stride] = s.imag();
  }
}

/// Conjugated steering phasors of the default 181-point grid for up to
/// kMaxHoistedTx elements, tx-major and zero-padded to a lane multiple.
/// Immutable after its (thread-safe, heap-free) static initialization.
struct SteeringTable {
  SteeringTable() {
    for (int g = 0; g < kDefaultGrid; ++g)
      fill_steering_column(g, kDefaultGrid, kMaxHoistedTx, re + g, im + g,
                           kPaddedGrid);
  }
  alignas(64) double re[kMaxHoistedTx * kPaddedGrid] = {};
  alignas(64) double im[kMaxHoistedTx * kPaddedGrid] = {};
};

const SteeringTable& default_steering() {
  static const SteeringTable table;
  return table;
}

/// Beam power of kLanes grid points: for every (subcarrier, rx) in scan
/// order, acc = sum_tx h * conj(a), then power += |acc|^2. Each lane runs
/// exactly the scalar std::complex operation sequence (separate multiplies
/// and adds, no contraction), so every finite lane is bit-identical to it.
/// `sre`/`sim` hold the steering rows, row tx at + tx * stride.
using BlockKernel = void (*)(const CsiMatrix& csi, const double* sre,
                             const double* sim, std::size_t stride,
                             double* power);

__attribute__((optimize("fp-contract=off"))) void block_power_scalar(
    const CsiMatrix& csi, const double* sre, const double* sim,
    std::size_t stride, double* power) {
  double pw[kLanes] = {};
  for (std::size_t sc = 0; sc < csi.n_subcarriers(); ++sc) {
    for (std::size_t rx = 0; rx < csi.n_rx(); ++rx) {
      double ar[kLanes] = {}, ai[kLanes] = {};
      for (std::size_t tx = 0; tx < csi.n_tx(); ++tx) {
        const cplx h = csi.at(tx, rx, sc);
        const double hr = h.real(), hi = h.imag();
        const double* cr = sre + tx * stride;
        const double* ci = sim + tx * stride;
        for (std::size_t l = 0; l < kLanes; ++l) {
          ar[l] += hr * cr[l] - hi * ci[l];
          ai[l] += hr * ci[l] + hi * cr[l];
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l)
        pw[l] += ar[l] * ar[l] + ai[l] * ai[l];
    }
  }
  std::copy(pw, pw + kLanes, power);
}

#if defined(__x86_64__)
__attribute__((target("avx2"), optimize("fp-contract=off"))) void
block_power_avx2(const CsiMatrix& csi, const double* sre, const double* sim,
                 std::size_t stride, double* power) {
  __m256d pw_lo = _mm256_setzero_pd(), pw_hi = _mm256_setzero_pd();
  for (std::size_t sc = 0; sc < csi.n_subcarriers(); ++sc) {
    for (std::size_t rx = 0; rx < csi.n_rx(); ++rx) {
      __m256d ar_lo = _mm256_setzero_pd(), ai_lo = _mm256_setzero_pd();
      __m256d ar_hi = _mm256_setzero_pd(), ai_hi = _mm256_setzero_pd();
      for (std::size_t tx = 0; tx < csi.n_tx(); ++tx) {
        const cplx h = csi.at(tx, rx, sc);
        const __m256d hr = _mm256_set1_pd(h.real());
        const __m256d hi = _mm256_set1_pd(h.imag());
        const double* cr = sre + tx * stride;
        const double* ci = sim + tx * stride;
        const __m256d cr_lo = _mm256_loadu_pd(cr);
        const __m256d ci_lo = _mm256_loadu_pd(ci);
        const __m256d cr_hi = _mm256_loadu_pd(cr + 4);
        const __m256d ci_hi = _mm256_loadu_pd(ci + 4);
        ar_lo = _mm256_add_pd(ar_lo, _mm256_sub_pd(_mm256_mul_pd(hr, cr_lo),
                                                   _mm256_mul_pd(hi, ci_lo)));
        ai_lo = _mm256_add_pd(ai_lo, _mm256_add_pd(_mm256_mul_pd(hr, ci_lo),
                                                   _mm256_mul_pd(hi, cr_lo)));
        ar_hi = _mm256_add_pd(ar_hi, _mm256_sub_pd(_mm256_mul_pd(hr, cr_hi),
                                                   _mm256_mul_pd(hi, ci_hi)));
        ai_hi = _mm256_add_pd(ai_hi, _mm256_add_pd(_mm256_mul_pd(hr, ci_hi),
                                                   _mm256_mul_pd(hi, cr_hi)));
      }
      pw_lo = _mm256_add_pd(pw_lo, _mm256_add_pd(_mm256_mul_pd(ar_lo, ar_lo),
                                                 _mm256_mul_pd(ai_lo, ai_lo)));
      pw_hi = _mm256_add_pd(pw_hi, _mm256_add_pd(_mm256_mul_pd(ar_hi, ar_hi),
                                                 _mm256_mul_pd(ai_hi, ai_hi)));
    }
  }
  _mm256_storeu_pd(power, pw_lo);
  _mm256_storeu_pd(power + 4, pw_hi);
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
block_power_avx512(const CsiMatrix& csi, const double* sre, const double* sim,
                   std::size_t stride, double* power) {
  __m512d pw = _mm512_setzero_pd();
  for (std::size_t sc = 0; sc < csi.n_subcarriers(); ++sc) {
    for (std::size_t rx = 0; rx < csi.n_rx(); ++rx) {
      __m512d ar = _mm512_setzero_pd(), ai = _mm512_setzero_pd();
      for (std::size_t tx = 0; tx < csi.n_tx(); ++tx) {
        const cplx h = csi.at(tx, rx, sc);
        const __m512d hr = _mm512_set1_pd(h.real());
        const __m512d hi = _mm512_set1_pd(h.imag());
        const __m512d cr = _mm512_loadu_pd(sre + tx * stride);
        const __m512d ci = _mm512_loadu_pd(sim + tx * stride);
        ar = _mm512_add_pd(
            ar, _mm512_sub_pd(_mm512_mul_pd(hr, cr), _mm512_mul_pd(hi, ci)));
        ai = _mm512_add_pd(
            ai, _mm512_add_pd(_mm512_mul_pd(hr, ci), _mm512_mul_pd(hi, cr)));
      }
      pw = _mm512_add_pd(
          pw, _mm512_add_pd(_mm512_mul_pd(ar, ar), _mm512_mul_pd(ai, ai)));
    }
  }
  _mm512_storeu_pd(power, pw);
}
#endif  // __x86_64__

BlockKernel block_kernel([[maybe_unused]] simd::Tier tier) {
#if defined(__x86_64__)
  if (tier == simd::Tier::kAvx512) return block_power_avx512;
  if (tier == simd::Tier::kAvx2) return block_power_avx2;
#endif
  return block_power_scalar;
}

/// Beam power of one grid point through std::complex arithmetic, with the
/// phasor recomputed per (subcarrier, rx): the one-angle scan the block
/// kernels reproduce lane by lane.
double complex_power(const CsiMatrix& csi, int g, int grid_points) {
  const double phase_step = grid_phase_step(g, grid_points);
  double power = 0.0;
  for (std::size_t sc = 0; sc < csi.n_subcarriers(); ++sc) {
    for (std::size_t rx = 0; rx < csi.n_rx(); ++rx) {
      cplx acc{};
      for (std::size_t tx = 0; tx < csi.n_tx(); ++tx)
        acc += csi.at(tx, rx, sc) * steering_conj(phase_step, tx);
      power += std::norm(acc);
    }
  }
  return power;
}

}  // namespace

AoaEstimate estimate_aoa(const CsiMatrix& csi, int grid_points) {
  AoaEstimate best;
  if (csi.empty() || grid_points < 2) return best;

  const std::size_t n_tx = csi.n_tx();
  const bool hoisted = n_tx <= kMaxHoistedTx;
  const BlockKernel kernel = block_kernel(simd::active_tier());
  const SteeringTable* table =
      hoisted && grid_points == kDefaultGrid ? &default_steering() : nullptr;
  // Off the default grid, each block's steering is computed on the stack.
  // Lanes past the grid end keep the previous block's phasors (or zeros);
  // their powers are computed but never read back.
  alignas(64) double block_re[kMaxHoistedTx * kLanes] = {};
  alignas(64) double block_im[kMaxHoistedTx * kLanes] = {};

  double best_power = -1.0;
  double power_sum = 0.0;
  const auto n_grid = static_cast<std::size_t>(grid_points);
  for (std::size_t g0 = 0; g0 < n_grid; g0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, n_grid - g0);
    alignas(64) double power[kLanes] = {};
    if (table != nullptr) {
      kernel(csi, table->re + g0, table->im + g0, kPaddedGrid, power);
    } else if (hoisted) {
      for (std::size_t l = 0; l < lanes; ++l)
        fill_steering_column(static_cast<int>(g0 + l), grid_points, n_tx,
                             block_re + l, block_im + l, kLanes);
      kernel(csi, block_re, block_im, kLanes, power);
    } else {
      std::fill_n(power, kLanes, std::numeric_limits<double>::quiet_NaN());
    }
    // Sum and argmax stay serial in grid order, as in the one-angle scan.
    // NaN lanes go through std::complex: its __muldc3 recovers infinite
    // products the lane formula turns into NaN, and arrays too wide to
    // hoist take that loop for every lane.
    for (std::size_t l = 0; l < lanes; ++l) {
      const int g = static_cast<int>(g0 + l);
      const double p =
          std::isnan(power[l]) ? complex_power(csi, g, grid_points) : power[l];
      power_sum += p;
      if (p > best_power) {
        best_power = p;
        best.angle_rad = grid_theta(g, grid_points);
      }
    }
  }

  const double mean_power = power_sum / grid_points;
  if (mean_power > 0.0) {
    best.peak_ratio = best_power / mean_power;
  } else {
    // All-zero CSI: the scan is flat at zero, so there is no angle to
    // report. NaN angle + zero confidence make the estimate rejectable,
    // where the old sentinel (theta = 0, ratio = 1.0) looked like a weak
    // but genuine measurement.
    best.angle_rad = std::numeric_limits<double>::quiet_NaN();
    best.peak_ratio = 0.0;
  }
  return best;
}

}  // namespace mobiwlan
