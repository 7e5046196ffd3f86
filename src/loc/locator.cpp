#include "loc/locator.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/simd.hpp"
#include "util/units.hpp"

namespace mobiwlan::loc {

namespace {

// Posting entries per block: one AVX-512 register of doubles, two AVX2
// registers, or one pass of the portable lane loop. The residue-minima count
// is a multiple of it, so every block folds into a contiguous run of them.
constexpr std::size_t kLanes = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t round_up(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// Stage 1's view of the query: one (RSSI, plane) pair per query AP, in
/// ascending AP order — the order every score is accumulated in.
struct CoarseQuery {
  std::size_t n_aps = 0;
  double q[64];
  /// The posting-ordered pair plane, or (gather[j]) the AP's whole
  /// transposed plane indexed through the postings list.
  const float* plane[64];
  bool gather[64];
};

/// Writes score[i] = sum over query APs (ascending) of (q - plane)^2 for
/// every posting entry, each sum started at +0.0 with separate multiplies
/// and adds, and folds entry i into mins[i mod groups].
using ScanKernel = void (*)(const CoarseQuery& cq, const std::uint32_t* posting,
                            std::size_t n, std::size_t groups, double* score,
                            double* mins);
/// Copies every (score, cell) with score <= t into ss/sc in posting order;
/// returns the count. May write up to kLanes - 1 slots past it.
using FilterKernel = std::size_t (*)(const double* score,
                                     const std::uint32_t* posting,
                                     std::size_t n, double t, double* ss,
                                     std::uint32_t* sc);
/// For each of the m survivors (padded with sentinels to a lane multiple),
/// counts the survivors below it in (score, cell) order and writes it to
/// cand/cand_dist at that rank, or to the spill slot [keep] past keep.
using RankKernel = void (*)(const double* ss, const std::uint32_t* sc,
                            std::size_t m, std::size_t keep,
                            std::uint32_t* cand, double* cand_dist);

__attribute__((optimize("fp-contract=off"))) void scan_scalar(
    const CoarseQuery& cq, const std::uint32_t* posting, std::size_t n,
    std::size_t groups, double* score, double* mins) {
  std::size_t slot = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - i0);
    double acc[kLanes] = {};
    for (std::size_t j = 0; j < cq.n_aps; ++j) {
      const float* plane = cq.plane[j];
      float v[kLanes] = {};
      if (cq.gather[j]) {
        for (std::size_t l = 0; l < lanes; ++l) v[l] = plane[posting[i0 + l]];
      } else if (lanes == kLanes) {  // fixed length: vector moves
        std::copy_n(plane + i0, kLanes, v);
      } else {
        std::copy_n(plane + i0, lanes, v);
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double d = cq.q[j] - static_cast<double>(v[l]);
        acc[l] = acc[l] + d * d;
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      score[i0 + l] = acc[l];
      mins[slot + l] = std::min(mins[slot + l], acc[l]);
    }
    slot += kLanes;
    if (slot == groups) slot = 0;
  }
}

std::size_t filter_scalar(const double* score, const std::uint32_t* posting,
                          std::size_t n, double t, double* ss,
                          std::uint32_t* sc) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ss[m] = score[i];
    sc[m] = posting[i];
    m += score[i] <= t ? 1 : 0;
  }
  return m;
}

void rank_scalar(const double* ss, const std::uint32_t* sc, std::size_t m,
                 std::size_t keep, std::uint32_t* cand, double* cand_dist) {
  for (std::size_t j = 0; j < m; ++j) {
    const double sj = ss[j];
    const std::uint32_t cj = sc[j];
    std::size_t r = 0;
    for (std::size_t k = 0; k < m; k += kLanes) {
      unsigned below = 0;
      for (std::size_t l = 0; l < kLanes; ++l)
        below += static_cast<unsigned>(ss[k + l] < sj) |
                 (static_cast<unsigned>(ss[k + l] == sj) &
                  static_cast<unsigned>(sc[k + l] < cj));
      r += below;
    }
    const std::size_t slot = r < keep ? r : keep;
    cand[slot] = cj;
    cand_dist[slot] = sj;
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"), optimize("fp-contract=off"))) void scan_avx2(
    const CoarseQuery& cq, const std::uint32_t* posting, std::size_t n,
    std::size_t groups, double* score, double* mins) {
  const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
  const __m256d inf = _mm256_set1_pd(kInf);
  std::size_t slot = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += 4) {
    const int lanes = static_cast<int>(std::min<std::size_t>(4, n - i0));
    const __m128i k32 = _mm_cmpgt_epi32(_mm_set1_epi32(lanes), lane);
    const __m256i k64 = _mm256_cvtepi32_epi64(k32);
    const __m128i idx = _mm_maskload_epi32(
        reinterpret_cast<const int*>(posting + i0), k32);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < cq.n_aps; ++j) {
      const __m128 v =
          cq.gather[j]
              ? _mm_mask_i32gather_ps(_mm_setzero_ps(), cq.plane[j], idx,
                                      _mm_castsi128_ps(k32), 4)
              : _mm_maskload_ps(cq.plane[j] + i0, k32);
      const __m256d d =
          _mm256_sub_pd(_mm256_set1_pd(cq.q[j]), _mm256_cvtps_pd(v));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_maskstore_pd(score + i0, k64, acc);
    const __m256d live = _mm256_blendv_pd(inf, acc, _mm256_castsi256_pd(k64));
    _mm256_storeu_pd(mins + slot,
                     _mm256_min_pd(_mm256_loadu_pd(mins + slot), live));
    slot += 4;
    if (slot == groups) slot = 0;
  }
}

__attribute__((target("avx2,popcnt"))) void rank_avx2(
    const double* ss, const std::uint32_t* sc, std::size_t m, std::size_t keep,
    std::uint32_t* cand, double* cand_dist) {
  // Unsigned 32-bit order through the signed compare: flip the sign bits.
  const __m128i bias = _mm_set1_epi32(std::numeric_limits<int>::min());
  for (std::size_t j = 0; j < m; ++j) {
    const __m256d sj = _mm256_set1_pd(ss[j]);
    const __m128i cj =
        _mm_xor_si128(_mm_set1_epi32(static_cast<int>(sc[j])), bias);
    std::size_t r = 0;
    for (std::size_t k = 0; k < m; k += 4) {
      const __m256d s = _mm256_loadu_pd(ss + k);
      const __m128i c = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sc + k)), bias);
      const __m256d cell_lt =
          _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpgt_epi32(cj, c)));
      const __m256d below = _mm256_or_pd(
          _mm256_cmp_pd(s, sj, _CMP_LT_OQ),
          _mm256_and_pd(_mm256_cmp_pd(s, sj, _CMP_EQ_OQ), cell_lt));
      r += static_cast<std::size_t>(_mm_popcnt_u32(
          static_cast<unsigned>(_mm256_movemask_pd(below))));
    }
    const std::size_t slot = r < keep ? r : keep;
    cand[slot] = sc[j];
    cand_dist[slot] = ss[j];
  }
}

__attribute__((target("avx512f,avx512dq,avx512vl"),
               optimize("fp-contract=off"))) void
scan_avx512(const CoarseQuery& cq, const std::uint32_t* posting, std::size_t n,
            std::size_t groups, double* score, double* mins) {
  std::size_t slot = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - i0);
    const __mmask8 k = static_cast<__mmask8>((1u << lanes) - 1);
    const __m256i idx = _mm256_maskz_loadu_epi32(k, posting + i0);
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = 0; j < cq.n_aps; ++j) {
      const __m256 v =
          cq.gather[j]
              ? _mm256_mmask_i32gather_ps(_mm256_setzero_ps(), k, idx,
                                          cq.plane[j], 4)
              : _mm256_maskz_loadu_ps(k, cq.plane[j] + i0);
      const __m512d d =
          _mm512_sub_pd(_mm512_set1_pd(cq.q[j]), _mm512_maskz_cvtps_pd(k, v));
      acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
    }
    _mm512_mask_storeu_pd(score + i0, k, acc);
    const __m512d mn = _mm512_loadu_pd(mins + slot);
    _mm512_storeu_pd(mins + slot, _mm512_mask_min_pd(mn, k, mn, acc));
    slot += kLanes;
    if (slot == groups) slot = 0;
  }
}

__attribute__((target("avx512f,avx512dq,avx512vl,popcnt"))) std::size_t
filter_avx512(const double* score, const std::uint32_t* posting,
              std::size_t n, double t, double* ss, std::uint32_t* sc) {
  const __m512d tv = _mm512_set1_pd(t);
  std::size_t m = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - i0);
    const __mmask8 k = static_cast<__mmask8>((1u << lanes) - 1);
    const __m512d s = _mm512_maskz_loadu_pd(k, score + i0);
    const __mmask8 pass = _mm512_mask_cmp_pd_mask(k, s, tv, _CMP_LE_OQ);
    // Compress in registers and store whole vectors: the buffers carry
    // kLanes slots of slack past any count this can reach.
    _mm512_storeu_pd(ss + m, _mm512_maskz_compress_pd(pass, s));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(sc + m),
        _mm256_maskz_compress_epi32(pass,
                                    _mm256_maskz_loadu_epi32(k, posting + i0)));
    m += static_cast<std::size_t>(_mm_popcnt_u32(pass));
  }
  return m;
}

__attribute__((target("avx512f,avx512dq,avx512vl,popcnt"))) void rank_avx512(
    const double* ss, const std::uint32_t* sc, std::size_t m, std::size_t keep,
    std::uint32_t* cand, double* cand_dist) {
  for (std::size_t j = 0; j < m; ++j) {
    const __m512d sj = _mm512_set1_pd(ss[j]);
    const __m256i cj = _mm256_set1_epi32(static_cast<int>(sc[j]));
    std::size_t r = 0;
    for (std::size_t k = 0; k < m; k += kLanes) {
      const __m512d s = _mm512_loadu_pd(ss + k);
      const __mmask8 eq = _mm512_cmp_pd_mask(s, sj, _CMP_EQ_OQ);
      const __mmask8 below =
          _mm512_cmp_pd_mask(s, sj, _CMP_LT_OQ) |
          _mm256_mask_cmplt_epu32_mask(
              eq, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sc + k)),
              cj);
      r += static_cast<std::size_t>(_mm_popcnt_u32(below));
    }
    const std::size_t slot = r < keep ? r : keep;
    cand[slot] = sc[j];
    cand_dist[slot] = ss[j];
  }
}
#endif  // __x86_64__

struct CoarseKernels {
  ScanKernel scan;
  FilterKernel filter;
  RankKernel rank;
};

CoarseKernels coarse_kernels([[maybe_unused]] simd::Tier tier) {
#if defined(__x86_64__)
  if (tier == simd::Tier::kAvx512)
    return {scan_avx512, filter_avx512, rank_avx512};
  // AVX2 has no compress instruction: it keeps the branch-free scalar copy.
  if (tier == simd::Tier::kAvx2) return {scan_avx2, filter_scalar, rank_avx2};
#endif
  return {scan_scalar, filter_scalar, rank_scalar};
}

}  // namespace

Locator::Locator(const FingerprintDb* db, const LocatorConfig& cfg)
    : db_(db), cfg_(cfg) {
  assert(cfg_.coarse_keep >= 1);
}

void Locator::begin_query(Scratch& s) const {
  const std::size_t n_aps = db_->n_aps();
  s.feat.assign(n_aps * kFeat, 0.0f);
  s.rssi.assign(n_aps, static_cast<float>(db_->config().rssi_floor_dbm));
  s.mask = 0;
  s.strongest_ap = 0;
  s.strongest_rssi = -std::numeric_limits<float>::infinity();
  // Stage 1 writes through data(): size every buffer for the longest
  // postings list now, so a lookup never grows one.
  const std::size_t longest = db_->max_posting();
  const std::size_t keep = std::min(cfg_.coarse_keep, longest);
  s.cand.clear();
  s.cand.reserve(keep + 1);  // + the rank stage's spill slot
  s.cand_dist.clear();
  s.cand_dist.reserve(keep + 1);
  s.ap_dist.clear();
  s.ap_dist.reserve(n_aps);
  s.score.resize(longest);
  s.resid_min.resize(round_up(keep));
  s.surv_score.resize(longest + kLanes);
  s.surv_cell.resize(longest + kLanes);
}

void Locator::observe_ap(Scratch& s, std::size_t ap, const CsiMatrix& csi,
                         double rssi_dbm) const {
  // One compare rejects below-floor, NaN, infinite and float-overflowing
  // RSSI: a NaN would poison every coarse score and skip the strongest-AP
  // update, an infinity would make the scores non-finite.
  if (!(rssi_dbm >= db_->config().rssi_floor_dbm &&
        rssi_dbm <= std::numeric_limits<float>::max()))
    return;
  extract_features(csi, rssi_dbm, &s.feat[ap * kFeat]);
  const float r = s.feat[ap * kFeat];
  s.rssi[ap] = r;
  s.mask |= std::uint64_t{1} << ap;
  // Lowest index wins RSSI ties so the result is invariant under the
  // order APs were observed in (the proptest permutation property).
  if (r > s.strongest_rssi || (r == s.strongest_rssi && ap < s.strongest_ap)) {
    s.strongest_rssi = r;
    s.strongest_ap = ap;
  }
}

void Locator::seed_query_from_cell(Scratch& s, std::size_t cell) const {
  begin_query(s);
  const float* row = db_->cell_features(cell);
  const float* rrow = db_->cell_rssi(cell);
  std::uint64_t bits = db_->cell_mask(cell);
  s.mask = bits;
  while (bits != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    for (std::size_t f = 0; f < kFeat; ++f)
      s.feat[ap * kFeat + f] = row[ap * kFeat + f];
    s.rssi[ap] = rrow[ap];
    if (rrow[ap] > s.strongest_rssi) {
      s.strongest_rssi = rrow[ap];
      s.strongest_ap = ap;
    }
  }
}

double Locator::fingerprint_distance(Scratch& s, std::size_t cell,
                                     int trim_override) const {
  const std::uint64_t cmask = db_->cell_mask(cell);
  const std::uint64_t shared = s.mask & cmask;
  if (shared == 0) return std::numeric_limits<double>::infinity();
  const float* packed = db_->packed_features(cell);

  // Walk the cell's packed row (mask-bit order) and keep the APs the query
  // also saw — ascending-AP order, so ap_dist is identical to a gather over
  // the full [ap][kFeat] row.
  s.ap_dist.clear();
  std::uint64_t bits = cmask;
  std::size_t rank = 0;
  while (bits != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    const float* c = &packed[rank * kFeat];
    ++rank;
    if ((shared >> ap & 1) == 0) continue;
    const float* q = &s.feat[ap * kFeat];
    double d2 = 0.0;
    for (std::size_t f = 0; f < kFeat; ++f) {
      const double diff = static_cast<double>(q[f]) - static_cast<double>(c[f]);
      d2 += diff * diff;
    }
    s.ap_dist.push_back(d2);
  }

  const std::size_t trim = trim_override >= 0
                               ? static_cast<std::size_t>(trim_override)
                               : cfg_.trim;
  std::size_t kept = s.ap_dist.size();
  if (trim > 0 && kept > trim && kept - trim >= cfg_.min_kept_aps) {
    // Partition the `trim` largest per-AP distances to the tail and drop
    // them — O(n), no sort, no allocation (ap_dist capacity is retained).
    std::nth_element(s.ap_dist.begin(),
                     s.ap_dist.begin() + static_cast<std::ptrdiff_t>(kept - trim),
                     s.ap_dist.end());
    kept -= trim;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < kept; ++i) sum += s.ap_dist[i];
  return sum / static_cast<double>(kept);
}

void Locator::coarse_candidates(Scratch& s) const {
  const std::vector<std::uint32_t>& posting = db_->postings(s.strongest_ap);
  const std::size_t n = posting.size();
  const std::size_t keep = std::min(cfg_.coarse_keep, n);
  assert(s.score.size() >= n && s.surv_score.size() >= n + kLanes &&
         s.resid_min.size() >= round_up(keep) && "begin_query sizes these");
  s.cand.clear();
  s.cand_dist.clear();
  if (n == 0) return;

  CoarseQuery cq;
  for (std::uint64_t bits = s.mask; bits != 0; bits &= bits - 1) {
    const auto ap = static_cast<std::size_t>(std::countr_zero(bits));
    const float* pp = db_->pair_plane(s.strongest_ap, ap);
    cq.q[cq.n_aps] = static_cast<double>(s.rssi[ap]);
    cq.plane[cq.n_aps] = pp != nullptr ? pp : db_->rssi_plane(ap);
    cq.gather[cq.n_aps] = pp == nullptr;
    ++cq.n_aps;
  }

  // Scores plus round_up(keep) residue minima in one pass. The minima come
  // from distinct entries (every class is non-empty once n >= groups; an
  // empty one stays +inf and lets every entry through), so their maximum
  // t is at least the keep-th smallest score and `score <= t` keeps every
  // entry the selection can pick.
  const CoarseKernels kern = coarse_kernels(simd::active_tier());
  const std::size_t groups = round_up(keep);
  std::fill_n(s.resid_min.begin(), groups, kInf);
  kern.scan(cq, posting.data(), n, groups, s.score.data(), s.resid_min.data());
  assert(std::all_of(s.score.data(), s.score.data() + n,
                     [](double v) { return std::isfinite(v); }) &&
         "observe_ap admits only finite RSSI, so every score is finite");
  const double t =
      *std::max_element(s.resid_min.data(), s.resid_min.data() + groups);
  const std::size_t m = kern.filter(s.score.data(), posting.data(), n, t,
                                    s.surv_score.data(), s.surv_cell.data());
  assert(m >= keep);
  // Sentinels sort after every finite survivor, so rank blocks run whole.
  for (std::size_t i = m; i < round_up(m); ++i) {
    s.surv_score[i] = kInf;
    s.surv_cell[i] = std::numeric_limits<std::uint32_t>::max();
  }
  // Cell ids are unique, so the ranks are a permutation of [0, m) and ranks
  // [0, keep) land exactly the keep smallest (score, cell) pairs in order.
  s.cand.resize(keep + 1);
  s.cand_dist.resize(keep + 1);
  kern.rank(s.surv_score.data(), s.surv_cell.data(), m, keep, s.cand.data(),
            s.cand_dist.data());
  s.cand.resize(keep);
  s.cand_dist.resize(keep);
}

LocEstimate Locator::locate(Scratch& s) const {
  LocEstimate out;
  if (s.mask == 0) return out;
  coarse_candidates(s);  // no candidates leave the estimate invalid below

  // Stage 2: fine trimmed distance on the survivors, reusing cand_dist.
  for (std::size_t i = 0; i < s.cand.size(); ++i)
    s.cand_dist[i] = fingerprint_distance(s, s.cand[i]);
  // Full insertion sort of the <= coarse_keep survivors: stable, so equal
  // fine distances keep their (deterministic) coarse order.
  for (std::size_t i = 1; i < s.cand.size(); ++i) {
    const double d = s.cand_dist[i];
    const std::uint32_t c = s.cand[i];
    std::size_t j = i;
    for (; j > 0 && s.cand_dist[j - 1] > d; --j) {
      s.cand_dist[j] = s.cand_dist[j - 1];
      s.cand[j] = s.cand[j - 1];
    }
    s.cand_dist[j] = d;
    s.cand[j] = c;
  }

  const std::size_t kk = std::min(cfg_.k, s.cand.size());
  double wsum = 0.0;
  Vec2 pos{};
  for (std::size_t i = 0; i < kk; ++i) {
    if (!std::isfinite(s.cand_dist[i])) break;  // no-shared-AP tail
    const double w = 1.0 / (s.cand_dist[i] + 1e-6);
    pos = pos + db_->cell_center(s.cand[i]) * w;
    wsum += w;
  }
  if (wsum <= 0.0) return out;
  out.position = pos * (1.0 / wsum);
  out.cell = s.cand[0];
  out.distance = s.cand_dist[0];
  out.valid = true;
  return out;
}

LocEstimate Locator::locate_fused(Scratch& s, const AoaEstimate& aoa,
                                  std::size_t serving_ap,
                                  double tof_cycles) const {
  LocEstimate est = locate(s);
  if (!est.valid) return est;
  // The confidence floor is what rejects the degenerate all-zero-CSI
  // estimate (ratio 0, NaN angle); the isfinite check is belt-and-braces.
  if (!(aoa.peak_ratio >= cfg_.aoa_min_peak_ratio) ||
      !std::isfinite(aoa.angle_rad))
    return est;

  // Invert the ToF model: cycles = round((2 d / c * 1e9 + bias_ns) * 1e-9 * clock).
  const double rt_ns = tof_cycles / cfg_.tof_clock_hz * 1e9 - cfg_.tof_bias_ns;
  const double range = 0.5 * rt_ns * 1e-9 * kSpeedOfLight;
  if (!(range > 0.0) || range > cfg_.max_fused_range_m) return est;

  // The ULA folds arrival angles into [0, pi]: both mirror candidates are
  // geometrically consistent, so let the fingerprint estimate disambiguate.
  const Vec2 ap = db_->ap_position(serving_ap);
  const double c = std::cos(aoa.angle_rad);
  const double sn = std::sin(aoa.angle_rad);
  const Vec2 pa = ap + Vec2{c, sn} * range;
  const Vec2 pb = ap + Vec2{c, -sn} * range;
  const Vec2 p =
      distance(pa, est.position) <= distance(pb, est.position) ? pa : pb;
  const double w = cfg_.fusion_weight;
  est.position = est.position * (1.0 - w) + p * w;
  return est;
}

}  // namespace mobiwlan::loc
