// Bitwise tier sweep of the locator's coarse stage: under every forced
// SIMD tier, stage 1 and the full locate() must reproduce, bit for bit, a
// reference that scores with one pass per query AP and selects through a
// bounded max-heap visited in a golden-ratio stride (the selection the
// branch-free scan/threshold/rank pipeline replaced). The synthetic
// databases cover short and ragged postings lists, every keep regime,
// gather-path AP pairs, 1- and 64-AP queries and exact score ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "loc/fingerprint_db.hpp"
#include "loc/locator.hpp"
#include "synthetic_db.hpp"
#include "util/simd.hpp"

namespace mobiwlan::loc {
namespace {

struct Reference {
  std::vector<std::uint32_t> coarse_cand;
  std::vector<double> coarse_dist;
  std::vector<std::uint32_t> cand;
  std::vector<double> cand_dist;
  LocEstimate est;
};

/// The pre-SIMD locate(): per-AP coarse passes, heap + stride selection,
/// then the same fine stage and centroid.
Reference reference_locate(const FingerprintDb& db, const LocatorConfig& cfg,
                           const Locator& loc, Locator::Scratch& s) {
  Reference ref;
  if (s.mask == 0) return ref;
  const std::vector<std::uint32_t>& posting = db.postings(s.strongest_ap);
  if (posting.empty()) return ref;

  std::vector<double> acc(posting.size(), 0.0);
  for (std::uint64_t bits = s.mask; bits != 0; bits &= bits - 1) {
    const auto ap = static_cast<std::size_t>(std::countr_zero(bits));
    const double q = static_cast<double>(s.rssi[ap]);
    if (const float* pp = db.pair_plane(s.strongest_ap, ap)) {
      for (std::size_t i = 0; i < posting.size(); ++i) {
        const double diff = q - static_cast<double>(pp[i]);
        acc[i] += diff * diff;
      }
    } else {
      const float* plane = db.rssi_plane(ap);
      for (std::size_t i = 0; i < posting.size(); ++i) {
        const double diff = q - static_cast<double>(plane[posting[i]]);
        acc[i] += diff * diff;
      }
    }
  }

  const std::size_t n = posting.size();
  const std::size_t keep = std::min(cfg.coarse_keep, n);
  std::size_t stride = 1;
  if (n > 2 * keep) {
    stride = (n * 61) / 100 | 1;
    while (std::gcd(stride, n) != 1) stride += 2;
  }
  std::vector<std::pair<double, std::uint32_t>> sel;
  std::size_t at = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::pair<double, std::uint32_t> p{acc[at], posting[at]};
    at += stride;
    if (at >= n) at -= n;
    if (sel.size() < keep) {
      sel.push_back(p);
      if (sel.size() == keep) std::make_heap(sel.begin(), sel.end());
    } else if (p < sel.front()) {
      std::pop_heap(sel.begin(), sel.end());
      sel.back() = p;
      std::push_heap(sel.begin(), sel.end());
    }
  }
  std::sort(sel.begin(), sel.end());
  for (std::size_t i = 0; i < keep; ++i) {
    ref.coarse_cand.push_back(sel[i].second);
    ref.coarse_dist.push_back(sel[i].first);
  }

  ref.cand = ref.coarse_cand;
  ref.cand_dist = ref.coarse_dist;
  for (std::size_t i = 0; i < ref.cand.size(); ++i)
    ref.cand_dist[i] = loc.fingerprint_distance(s, ref.cand[i]);
  for (std::size_t i = 1; i < ref.cand.size(); ++i) {
    const double d = ref.cand_dist[i];
    const std::uint32_t c = ref.cand[i];
    std::size_t j = i;
    for (; j > 0 && ref.cand_dist[j - 1] > d; --j) {
      ref.cand_dist[j] = ref.cand_dist[j - 1];
      ref.cand[j] = ref.cand[j - 1];
    }
    ref.cand_dist[j] = d;
    ref.cand[j] = c;
  }

  const std::size_t kk = std::min(cfg.k, ref.cand.size());
  double wsum = 0.0;
  Vec2 pos{};
  for (std::size_t i = 0; i < kk; ++i) {
    if (!std::isfinite(ref.cand_dist[i])) break;
    const double w = 1.0 / (ref.cand_dist[i] + 1e-6);
    pos = pos + db.cell_center(ref.cand[i]) * w;
    wsum += w;
  }
  if (wsum <= 0.0) return ref;
  ref.est.position = pos * (1.0 / wsum);
  ref.est.cell = ref.cand[0];
  ref.est.distance = ref.cand_dist[0];
  ref.est.valid = true;
  return ref;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

/// A query whose strongest AP is AP 0 (the one whose postings length the
/// synthetic DB controls) and which sees `aps` (ascending bit order does
/// not matter: the locator sorts). RSSI values sit on the DB's own scale.
void load_query(const Locator& loc, Locator::Scratch& s,
                const std::vector<std::size_t>& aps, bool quantized,
                Rng& rng) {
  loc.begin_query(s);
  for (const std::size_t ap : aps) {
    const float r = quantized ? static_cast<float>(rng.uniform_int(-64, -60))
                              : static_cast<float>(rng.uniform(-80.0, -30.0));
    s.rssi[ap] = r;
    s.feat[ap * kFeat] = r;
    for (std::size_t f = 1; f < kFeat; ++f)
      s.feat[ap * kFeat + f] = static_cast<float>(rng.uniform(-100.0, -40.0));
    s.mask |= std::uint64_t{1} << ap;
  }
  s.strongest_ap = 0;
  s.strongest_rssi = s.rssi[0];
}

/// Restores dispatch to the environment's choice when a test ends.
struct TierGuard {
  ~TierGuard() { simd::set_forced_tier(-1); }
};

/// Sweeps keep x query-AP sets x tiers over one DB against the reference.
/// Returns the number of (keep, query, tier) cases compared.
int sweep(const FingerprintDb& db, bool quantized, std::uint64_t seed) {
  const TierGuard guard;
  Rng rng(seed);
  std::vector<std::vector<std::size_t>> query_aps = {{0}};
  std::vector<std::size_t> all(db.n_aps());
  std::iota(all.begin(), all.end(), std::size_t{0});
  query_aps.push_back(all);
  // A mixed set: pair-plane neighbours (1..7) and gather-path APs (8..).
  std::vector<std::size_t> mixed = {0};
  for (std::size_t a = 1; a < db.n_aps(); ++a)
    if (rng.chance(0.3)) mixed.push_back(a);
  query_aps.push_back(mixed);

  int cases = 0;
  for (const std::size_t keep : {1, 4, 16, 17, 64, 100000}) {
    LocatorConfig cfg;
    cfg.coarse_keep = keep;
    const Locator loc(&db, cfg);
    for (const auto& aps : query_aps) {
      Locator::Scratch ref_s;
      Rng qrng(seed ^ (keep * 0x9e3779b97f4a7c15ULL) ^ aps.size());
      load_query(loc, ref_s, aps, quantized, qrng);
      const Reference ref = reference_locate(db, cfg, loc, ref_s);
      for (int tier = 0; tier <= 2; ++tier) {
        simd::set_forced_tier(tier);
        SCOPED_TRACE(::testing::Message()
                     << "posting " << db.postings(0).size() << " keep " << keep
                     << " query APs " << aps.size() << " tier "
                     << simd::tier_name(simd::active_tier()));
        Locator::Scratch s;
        Rng q2(seed ^ (keep * 0x9e3779b97f4a7c15ULL) ^ aps.size());
        load_query(loc, s, aps, quantized, q2);

        loc.coarse_candidates(s);
        EXPECT_EQ(s.cand, ref.coarse_cand);
        EXPECT_EQ(bits_of(s.cand_dist), bits_of(ref.coarse_dist));

        const LocEstimate est = loc.locate(s);
        EXPECT_EQ(s.cand, ref.cand);
        EXPECT_EQ(bits_of(s.cand_dist), bits_of(ref.cand_dist));
        EXPECT_EQ(est.valid, ref.est.valid);
        EXPECT_EQ(est.cell, ref.est.cell);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(est.distance),
                  std::bit_cast<std::uint64_t>(ref.est.distance));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(est.position.x),
                  std::bit_cast<std::uint64_t>(ref.est.position.x));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(est.position.y),
                  std::bit_cast<std::uint64_t>(ref.est.position.y));
        ++cases;
      }
    }
  }
  return cases;
}

TEST(LocatorTierSweep, ShortAndRaggedPostingsMatchReference) {
  // Empty, below one block, below 2 * keep, and every length mod 8 several
  // times over.
  for (std::size_t n = 0; n <= 48; ++n) {
    const FingerprintDb db = synthetic::random_db(96, 12, n, false, 1000 + n);
    ASSERT_EQ(db.postings(0).size(), n);
    sweep(db, false, 2000 + n);
  }
}

TEST(LocatorTierSweep, LongPostingsMatchReference) {
  for (const std::size_t n : {200u, 257u, 643u}) {
    const FingerprintDb db = synthetic::random_db(700, 16, n, false, 3000 + n);
    sweep(db, false, 4000 + n);
  }
}

TEST(LocatorTierSweep, SixtyFourApQueriesMatchReference) {
  for (const std::size_t n : {5u, 33u, 150u}) {
    const FingerprintDb db = synthetic::random_db(200, 64, n, false, 5000 + n);
    EXPECT_EQ(sweep(db, false, 6000 + n), 6 * 3 * 3);
  }
}

TEST(LocatorTierSweep, QuantizedTiesMatchReference) {
  // Five RSSI levels: many coarse scores tie exactly, including across the
  // threshold, and must still fall to the lowest cell id.
  for (const std::size_t n : {7u, 40u, 123u, 400u}) {
    const FingerprintDb db = synthetic::random_db(450, 10, n, true, 7000 + n);
    sweep(db, true, 8000 + n);
  }
}

TEST(LocatorTierSweep, AllTiesKeepLowestCellIds) {
  const TierGuard guard;
  for (const std::size_t n : {3u, 16u, 203u}) {
    const FingerprintDb db = synthetic::all_ties_db(n, 9);
    sweep(db, false, 9000 + n);
    for (int tier = 0; tier <= 2; ++tier) {
      simd::set_forced_tier(tier);
      LocatorConfig cfg;
      const Locator loc(&db, cfg);
      Locator::Scratch s;
      loc.seed_query_from_cell(s, n - 1);
      loc.coarse_candidates(s);
      const std::size_t keep = std::min(cfg.coarse_keep, n);
      ASSERT_EQ(s.cand.size(), keep);
      for (std::size_t i = 0; i < keep; ++i) EXPECT_EQ(s.cand[i], i);
    }
  }
}

TEST(LocatorTierSweep, ApWithoutPairPlaneTakesGatherPath) {
  // Guards the DB layout the sweeps rely on: AP 0 pairs with 1..7 through
  // a plane and with 8.. through the gather path.
  const FingerprintDb db = synthetic::random_db(64, 12, 20, false, 1);
  EXPECT_NE(db.pair_plane(0, 7), nullptr);
  EXPECT_EQ(db.pair_plane(0, 8), nullptr);
}

}  // namespace
}  // namespace mobiwlan::loc
