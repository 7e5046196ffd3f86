// Property suite: localization invariants over random queries against a
// small surveyed fingerprint database.
//
// The ISSUE-level claims: a locate() result is invariant under the order
// APs were observed in (the locator sorts everything into ascending-AP /
// ascending-cell order internally); the CRISLoc trimmed distance can only
// drop the worst per-AP terms, so it never exceeds the untrimmed mean; a
// query seeded with a cell's stored fingerprint returns that cell at
// distance exactly 0; and once the first begin_query has sized the scratch,
// begin_query/observe_ap/locate perform zero heap allocations, also on a
// database where every coarse score ties (this binary links
// mobiwlan_alloc_hook to count them).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "loc/fingerprint_db.hpp"
#include "loc/locator.hpp"
#include "../loc/synthetic_db.hpp"
#include "proptest.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan::loc {
namespace {

using proptest::run_cases;

/// One surveyed 8x8 / 3-AP database shared by every property (built once;
/// all properties are read-only against it).
const FingerprintDb& prop_db() {
  static const FingerprintDb db = [] {
    FingerprintDbConfig cfg;
    cfg.cols = 8;
    cfg.rows = 8;
    cfg.pitch_m = 4.0;
    cfg.snapshots = 2;
    cfg.coverage_radius_m = 60.0;
    cfg.seed = 20140204;
    FingerprintDb d(cfg, {Vec2{4.0, 4.0}, Vec2{28.0, 4.0}, Vec2{16.0, 28.0}},
                    ChannelConfig{});
    d.build();
    return d;
  }();
  return db;
}

/// A random per-AP observation set: CSI plus an RSSI that straddles the
/// audibility floor (some observations are deliberately discarded by
/// observe_ap — the invariants must hold through that filter too).
struct Observation {
  CsiMatrix csi;
  double rssi_dbm;
};

std::vector<Observation> random_observations(Rng& rng, std::size_t n_aps) {
  std::vector<Observation> obs(n_aps);
  for (std::size_t ap = 0; ap < n_aps; ++ap) {
    obs[ap].csi = CsiMatrix(3, 2, 52);
    for (auto& z : obs[ap].csi.raw())
      z = rng.complex_gaussian(rng.uniform(0.25, 4.0));
    // Mostly audible, occasionally below the -82 dBm floor.
    obs[ap].rssi_dbm = rng.uniform(-90.0, -40.0);
  }
  return obs;
}

void observe_in_order(const Locator& loc, Locator::Scratch& s,
                      const std::vector<Observation>& obs,
                      const std::vector<std::size_t>& order) {
  loc.begin_query(s);
  for (const std::size_t ap : order)
    loc.observe_ap(s, ap, obs[ap].csi, obs[ap].rssi_dbm);
}

TEST(LocProperty, ResultInvariantUnderObservationOrder) {
  run_cases("loc_observe_permutation", [](Rng& rng, int) {
    const FingerprintDb& db = prop_db();
    Locator loc(&db, LocatorConfig{});
    const std::vector<Observation> obs = random_observations(rng, db.n_aps());

    std::vector<std::size_t> order(db.n_aps());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Locator::Scratch s_fwd;
    observe_in_order(loc, s_fwd, obs, order);
    const LocEstimate a = loc.locate(s_fwd);

    // Fisher-Yates shuffle of the observation order.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<int>(i) - 1))]);
    Locator::Scratch s_perm;
    observe_in_order(loc, s_perm, obs, order);
    const LocEstimate b = loc.locate(s_perm);

    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.position.x, b.position.x);
    EXPECT_EQ(a.position.y, b.position.y);
  });
}

TEST(LocProperty, TrimmedDistanceNeverExceedsUntrimmed) {
  run_cases("loc_trimmed_leq_untrimmed", [](Rng& rng, int) {
    const FingerprintDb& db = prop_db();
    LocatorConfig cfg;
    cfg.trim = 1;
    cfg.min_kept_aps = 1;  // let the trim engage even on 2-AP overlaps
    Locator loc(&db, cfg);
    const std::vector<Observation> obs = random_observations(rng, db.n_aps());
    std::vector<std::size_t> order(db.n_aps());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Locator::Scratch s;
    observe_in_order(loc, s, obs, order);
    if (s.mask == 0) return;  // every AP drawn inaudible: nothing to compare

    const std::size_t cell = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(db.n_cells()) - 1));
    const double trimmed = loc.fingerprint_distance(s, cell);
    const double full = loc.fingerprint_distance(s, cell, 0);
    if (!std::isfinite(full)) {
      EXPECT_FALSE(std::isfinite(trimmed));  // no shared AP either way
      return;
    }
    // Dropping the worst per-AP terms can only lower the mean.
    EXPECT_LE(trimmed, full + 1e-12);
  });
}

TEST(LocProperty, StoredFingerprintQueryReturnsOwnCellAtZeroDistance) {
  run_cases("loc_self_query", [](Rng& rng, int) {
    const FingerprintDb& db = prop_db();
    Locator loc(&db, LocatorConfig{});
    Locator::Scratch s;
    const std::size_t cell = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(db.n_cells()) - 1));
    loc.seed_query_from_cell(s, cell);
    ASSERT_NE(s.mask, 0u);  // the 8x8 fixture covers every cell
    EXPECT_EQ(loc.fingerprint_distance(s, cell), 0.0);
    const LocEstimate est = loc.locate(s);
    EXPECT_TRUE(est.valid);
    EXPECT_EQ(est.cell, cell);
    EXPECT_EQ(est.distance, 0.0);
  });
}

/// Counts heap allocations over 65 queries on one scratch, with
/// fingerprint_distance calls mixed in: from right after the first
/// begin_query (which sizes the scratch, so nothing may rely on a warm-up
/// query) and, for the 64 after it, from begin_query itself on.
std::uint64_t allocs_after_begin_query(const FingerprintDb& db) {
  Locator loc(&db, LocatorConfig{});
  Rng rng(proptest::kSuiteSeed);
  std::vector<Observation> obs = random_observations(rng, db.n_aps());
  // Pin every AP audible: the measured loop asserts a valid estimate.
  for (std::size_t ap = 0; ap < obs.size(); ++ap)
    obs[ap].rssi_dbm = -55.0 - 2.0 * static_cast<double>(ap);

  std::uint64_t allocs = 0;
  Locator::Scratch s;
  for (int i = 0; i < 65; ++i) {
    const std::uint64_t before_begin = alloc_count();
    loc.begin_query(s);
    const std::uint64_t allocs0 = i == 0 ? alloc_count() : before_begin;
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap)
      loc.observe_ap(s, ap, obs[ap].csi, obs[ap].rssi_dbm);
    const LocEstimate est = loc.locate(s);
    EXPECT_TRUE(est.valid);
    for (std::size_t cell = 0; cell < db.n_cells(); cell += 17)
      (void)loc.fingerprint_distance(s, cell);
    allocs += alloc_count() - allocs0;
  }
  return allocs;
}

TEST(LocProperty, SteadyStateQueriesAreAllocationFree) {
  ASSERT_TRUE(alloc_hook_active());
  EXPECT_EQ(allocs_after_begin_query(prop_db()), 0u)
      << "begin_query/observe_ap/locate allocated on the query path";
}

TEST(LocProperty, AllTiesQueriesAreAllocationFreeFromBeginQueryOn) {
  // Every coarse score ties, so every postings entry survives the
  // threshold: the survivor buffers run at their worst-case length.
  ASSERT_TRUE(alloc_hook_active());
  const FingerprintDb db = synthetic::all_ties_db(300, 8);
  ASSERT_EQ(db.max_posting(), 300u);
  EXPECT_EQ(allocs_after_begin_query(db), 0u)
      << "begin_query/observe_ap/locate allocated on the all-ties DB";
}

}  // namespace
}  // namespace mobiwlan::loc
