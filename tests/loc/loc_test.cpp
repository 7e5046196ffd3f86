// Tests for the localization workload (src/loc/): fingerprint features,
// the survey-built database (purity of survey_cell, parallel-adopt ==
// serial-build, refresh semantics and derived-table sync), the two-stage
// locator, and the mobility gate's routing state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "loc/fingerprint.hpp"
#include "loc/fingerprint_db.hpp"
#include "loc/locator.hpp"
#include "loc/mobility_gate.hpp"

namespace mobiwlan::loc {
namespace {

FingerprintDbConfig small_cfg() {
  FingerprintDbConfig cfg;
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.pitch_m = 4.0;
  cfg.snapshots = 2;
  cfg.coverage_radius_m = 60.0;
  cfg.seed = 20140204;
  return cfg;
}

std::vector<Vec2> small_aps() {
  return {Vec2{4.0, 4.0}, Vec2{28.0, 4.0}, Vec2{16.0, 28.0}};
}

/// One surveyed 8x8 / 3-AP database shared by the read-only tests; tests
/// that mutate (refresh) take a copy.
const FingerprintDb& test_db() {
  static const FingerprintDb db = [] {
    FingerprintDb d(small_cfg(), small_aps(), ChannelConfig{});
    d.build();
    return d;
  }();
  return db;
}

TEST(FingerprintTest, ZeroCsiFloorsEveryBand) {
  float out[kFeat];
  extract_features(CsiMatrix(3, 2, 52), -50.0, out);
  EXPECT_FLOAT_EQ(out[0], -50.0f);
  for (std::size_t b = 1; b < kFeat; ++b)
    EXPECT_FLOAT_EQ(out[b], static_cast<float>(kMagFloorDb)) << "band " << b;
}

TEST(FingerprintTest, FeaturesAreFiniteOnRealCsi) {
  const FingerprintDb& db = test_db();
  // Every stored feature of every audible AP must be finite and at or
  // above the magnitude floor.
  for (std::size_t cell = 0; cell < db.n_cells(); ++cell) {
    std::uint64_t bits = db.cell_mask(cell);
    while (bits != 0) {
      const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const float* row = db.cell_features(cell);
      for (std::size_t f = 1; f < kFeat; ++f) {
        ASSERT_TRUE(std::isfinite(row[ap * kFeat + f]));
        ASSERT_GE(row[ap * kFeat + f], static_cast<float>(kMagFloorDb));
      }
    }
  }
}

TEST(FingerprintDbTest, CellGeometryRoundTrips) {
  const FingerprintDb& db = test_db();
  for (std::size_t cell = 0; cell < db.n_cells(); ++cell)
    EXPECT_EQ(db.nearest_cell(db.cell_center(cell)), cell);
  // Points outside the grid clamp to the edge cells.
  EXPECT_EQ(db.nearest_cell(Vec2{-100.0, -100.0}), 0u);
  EXPECT_EQ(db.nearest_cell(Vec2{1000.0, 1000.0}), db.n_cells() - 1);
}

TEST(FingerprintDbTest, EveryCellIsCovered) {
  const FingerprintDb& db = test_db();
  for (std::size_t cell = 0; cell < db.n_cells(); ++cell)
    ASSERT_NE(db.cell_mask(cell), 0u) << "cell " << cell;
}

TEST(FingerprintDbTest, SurveyCellIsPure) {
  const FingerprintDb& db = test_db();
  const std::size_t n = db.n_aps();
  std::vector<float> row_a(n * kFeat), row_b(n * kFeat);
  std::vector<float> rssi_a(n), rssi_b(n);
  std::uint64_t mask_a = 0, mask_b = 0;
  ChannelBatch::Scratch scratch;
  const std::size_t cell = 27;
  db.survey_cell(cell, row_a.data(), rssi_a.data(), &mask_a, scratch);
  db.survey_cell(cell, row_b.data(), rssi_b.data(), &mask_b, scratch);
  EXPECT_EQ(mask_a, mask_b);
  EXPECT_EQ(row_a, row_b);
  EXPECT_EQ(rssi_a, rssi_b);
  // And it reproduces what build() stored.
  EXPECT_EQ(mask_a, db.cell_mask(cell));
  for (std::size_t i = 0; i < n * kFeat; ++i)
    EXPECT_EQ(row_a[i], db.cell_features(cell)[i]) << "feature " << i;
}

TEST(FingerprintDbTest, AdoptedRowsMatchSerialBuildBitwise) {
  // The bench's parallel path: survey every cell into flat arrays (in any
  // order — survey_cell is pure), adopt, and the digest must equal the
  // serial build's.
  FingerprintDb db(small_cfg(), small_aps(), ChannelConfig{});
  const std::size_t n_aps = db.n_aps();
  std::vector<float> rows(db.n_cells() * n_aps * kFeat);
  std::vector<float> rssi(db.n_cells() * n_aps);
  std::vector<std::uint64_t> masks(db.n_cells());
  ChannelBatch::Scratch scratch;
  for (std::size_t c = db.n_cells(); c-- > 0;)  // reverse order on purpose
    db.survey_cell(c, &rows[c * n_aps * kFeat], &rssi[c * n_aps], &masks[c],
                   scratch);
  db.adopt_rows(std::move(rows), std::move(rssi), std::move(masks));
  EXPECT_EQ(db.digest(), test_db().digest());
}

TEST(FingerprintDbTest, DerivedTablesMatchPrimary) {
  const FingerprintDb& db = test_db();
  for (std::size_t cell = 0; cell < db.n_cells(); ++cell) {
    // Transposed plane mirrors the [cell][ap] plane.
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap)
      ASSERT_EQ(db.rssi_plane(ap)[cell], db.cell_rssi(cell)[ap]);
    // Packed row holds the audible APs' features in mask-bit order.
    const float* packed = db.packed_features(cell);
    std::uint64_t bits = db.cell_mask(cell);
    std::size_t rank = 0;
    while (bits != 0) {
      const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      for (std::size_t f = 0; f < kFeat; ++f)
        ASSERT_EQ(packed[rank * kFeat + f],
                  db.cell_features(cell)[ap * kFeat + f]);
      ++rank;
    }
  }
  // Pair planes are posting-ordered copies of the transposed plane.
  for (std::size_t s = 0; s < db.n_aps(); ++s) {
    for (std::size_t a = 0; a < db.n_aps(); ++a) {
      const float* pp = db.pair_plane(s, a);
      if (pp == nullptr) continue;
      const auto& posting = db.postings(s);
      for (std::size_t i = 0; i < posting.size(); ++i)
        ASSERT_EQ(pp[i], db.rssi_plane(a)[posting[i]]);
    }
  }
}

TEST(FingerprintDbTest, RefreshBlendsSharedApsAndSyncsDerivedTables) {
  FingerprintDb db = test_db();  // mutable copy
  const std::size_t cell = 36;
  const std::uint64_t mask = db.cell_mask(cell);
  ASSERT_NE(mask, 0u);
  const std::uint64_t digest0 = db.digest();

  const std::size_t n_aps = db.n_aps();
  std::vector<float> expected(db.cell_features(cell),
                              db.cell_features(cell) + n_aps * kFeat);
  std::vector<float> query(expected);
  std::vector<float> query_rssi(db.cell_rssi(cell),
                                db.cell_rssi(cell) + n_aps);
  for (float& f : query) f += 2.0f;
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    for (std::size_t f = 0; f < kFeat; ++f) {
      const std::size_t i = ap * kFeat + f;
      expected[i] = static_cast<float>(0.5 * static_cast<double>(expected[i]) +
                                       0.5 * static_cast<double>(query[i]));
    }
  }

  db.refresh(cell, query.data(), query_rssi.data(), mask, 0.5);
  EXPECT_EQ(db.writes(), test_db().writes() + 1);
  EXPECT_NE(db.digest(), digest0);

  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    for (std::size_t f = 0; f < kFeat; ++f)
      ASSERT_EQ(db.cell_features(cell)[ap * kFeat + f],
                expected[ap * kFeat + f]);
    // The coarse planes track the refreshed RSSI feature exactly.
    ASSERT_EQ(db.cell_rssi(cell)[ap], db.cell_features(cell)[ap * kFeat]);
    ASSERT_EQ(db.rssi_plane(ap)[cell], db.cell_rssi(cell)[ap]);
  }
  // Masks and postings are structural, not refreshed.
  EXPECT_EQ(db.cell_mask(cell), mask);

  // Packed row and pair planes were re-mirrored.
  const float* packed = db.packed_features(cell);
  std::size_t rank = 0;
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    for (std::size_t f = 0; f < kFeat; ++f)
      ASSERT_EQ(packed[rank * kFeat + f],
                db.cell_features(cell)[ap * kFeat + f]);
    ++rank;
  }
  for (std::uint64_t owners = mask; owners != 0; owners &= owners - 1) {
    const std::size_t s = static_cast<std::size_t>(std::countr_zero(owners));
    const auto& posting = db.postings(s);
    for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      const std::size_t a = static_cast<std::size_t>(std::countr_zero(bits));
      const float* pp = db.pair_plane(s, a);
      if (pp == nullptr) continue;
      const auto it = std::lower_bound(posting.begin(), posting.end(),
                                       static_cast<std::uint32_t>(cell));
      ASSERT_NE(it, posting.end());
      ASSERT_EQ(pp[static_cast<std::size_t>(it - posting.begin())],
                db.cell_rssi(cell)[a]);
    }
  }
}

TEST(FingerprintDbTest, RefreshIgnoresApsOutsideTheCellMask) {
  FingerprintDb db = test_db();
  const std::size_t cell = 9;
  const std::uint64_t mask = db.cell_mask(cell);
  ASSERT_NE(mask, 0u);
  // A query mask sharing nothing with the cell leaves the features alone
  // (but still counts the write attempt).
  const std::uint64_t disjoint = ~mask & ((std::uint64_t{1} << db.n_aps()) - 1);
  std::vector<float> query(db.n_aps() * kFeat, 99.0f);
  std::vector<float> query_rssi(db.n_aps(), -30.0f);
  const std::uint64_t digest0 = db.digest();
  db.refresh(cell, query.data(), query_rssi.data(), disjoint, 0.5);
  EXPECT_EQ(db.digest(), digest0);
}

TEST(LocatorTest, SelfQueryReturnsOwnCellAtZeroDistance) {
  const FingerprintDb& db = test_db();
  Locator loc(&db, LocatorConfig{});
  Locator::Scratch s;
  for (std::size_t cell : {0u, 27u, 36u, 63u}) {
    loc.seed_query_from_cell(s, cell);
    EXPECT_EQ(loc.fingerprint_distance(s, cell), 0.0);
    const LocEstimate est = loc.locate(s);
    EXPECT_TRUE(est.valid);
    EXPECT_EQ(est.cell, cell);
    EXPECT_EQ(est.distance, 0.0);
  }
}

TEST(LocatorTest, PerturbedSelfQueryStaysInCell) {
  const FingerprintDb& db = test_db();
  Locator loc(&db, LocatorConfig{});
  Locator::Scratch s;
  const std::size_t cell = 28;
  loc.seed_query_from_cell(s, cell);
  // Nudge the band features (not the RSSI) of every visible AP: still far
  // closer to the home cell than to any neighbor.
  for (std::uint64_t bits = s.mask; bits != 0; bits &= bits - 1) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    for (std::size_t f = 1; f < kFeat; ++f) s.feat[ap * kFeat + f] += 0.05f;
  }
  const LocEstimate est = loc.locate(s);
  EXPECT_TRUE(est.valid);
  EXPECT_EQ(est.cell, cell);
  EXPECT_GT(est.distance, 0.0);
}

TEST(LocatorTest, NonFiniteRssiObservationsAreDiscarded) {
  const FingerprintDb& db = test_db();
  Locator loc(&db, LocatorConfig{});
  CsiMatrix csi(3, 2, 52);
  for (auto& z : csi.raw()) z = cplx{0.5, -0.25};
  Locator::Scratch s;
  loc.begin_query(s);
  loc.observe_ap(s, 1, csi, -60.0);
  const std::uint64_t mask = s.mask;
  const std::vector<float> feat = s.feat;
  const std::vector<float> rssi = s.rssi;
  const std::size_t strongest = s.strongest_ap;
  ASSERT_EQ(strongest, 1u);
  // NaN used to pass the floor check, set the mask bit, skip the
  // strongest-AP update and poison every coarse score; infinities and
  // values a float cannot hold would make the scores non-finite.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1e300}) {
    for (const std::size_t ap : {0u, 2u}) {
      loc.observe_ap(s, ap, csi, bad);
      EXPECT_EQ(s.mask, mask) << bad;
      EXPECT_EQ(s.feat, feat) << bad;
      EXPECT_EQ(s.rssi, rssi) << bad;
      EXPECT_EQ(s.strongest_ap, strongest) << bad;
    }
  }
  const LocEstimate est = loc.locate(s);
  EXPECT_TRUE(est.valid);
  EXPECT_TRUE(std::isfinite(est.distance));
}

TEST(LocatorTest, EmptyQueryIsInvalid) {
  Locator loc(&test_db(), LocatorConfig{});
  Locator::Scratch s;
  loc.begin_query(s);
  EXPECT_FALSE(loc.locate(s).valid);
}

TEST(MobilityGateTest, StaticRefreshesAtMostOncePerPeriod) {
  MobilityGateConfig cfg;
  cfg.decision_hold_s = 2.0;
  cfg.min_refresh_period_s = 1.0;
  MobilityGate g(cfg);
  EXPECT_EQ(g.route(0.0, MobilityMode::kStatic), GateAction::kRefresh);
  EXPECT_EQ(g.route(0.5, MobilityMode::kStatic), GateAction::kQueryOnly);
  EXPECT_EQ(g.route(1.5, MobilityMode::kStatic), GateAction::kRefresh);
  EXPECT_EQ(g.refreshes(), 2u);
  EXPECT_EQ(g.queries(), 1u);
}

TEST(MobilityGateTest, MobileAndNoisyOnlyQuery) {
  MobilityGate g;
  EXPECT_EQ(g.route(0.0, MobilityMode::kMacroAway), GateAction::kQueryOnly);
  EXPECT_EQ(g.route(1.0, MobilityMode::kMicro), GateAction::kQueryOnly);
  EXPECT_EQ(g.route(2.0, MobilityMode::kEnvironmental), GateAction::kQueryOnly);
  EXPECT_EQ(g.refreshes(), 0u);
}

TEST(MobilityGateTest, UnknownBeforeAnyDecisionOnlyQueries) {
  MobilityGate g;
  EXPECT_EQ(g.route(0.0, std::nullopt), GateAction::kQueryOnly);
  EXPECT_EQ(g.held(), 0u);
  EXPECT_EQ(g.decayed(), 0u);
}

TEST(MobilityGateTest, HoldsStaleDecisionThenDecaysToQueryOnly) {
  MobilityGateConfig cfg;
  cfg.decision_hold_s = 2.0;
  cfg.min_refresh_period_s = 1.0;
  MobilityGate g(cfg);
  EXPECT_EQ(g.route(0.0, MobilityMode::kStatic), GateAction::kRefresh);
  // Decision goes missing: within the hold window the gate keeps acting on
  // "static" — including the right to refresh.
  EXPECT_EQ(g.route(1.5, std::nullopt), GateAction::kRefresh);
  EXPECT_EQ(g.held(), 1u);
  // Past the window: decay to the safe side, and stay there.
  EXPECT_EQ(g.route(4.0, std::nullopt), GateAction::kQueryOnly);
  EXPECT_EQ(g.decayed(), 1u);
  EXPECT_EQ(g.route(5.0, std::nullopt), GateAction::kQueryOnly);
  EXPECT_EQ(g.decayed(), 1u);  // decay is a one-shot transition
  // A fresh decision restores normal routing.
  EXPECT_EQ(g.route(6.0, MobilityMode::kStatic), GateAction::kRefresh);
}

}  // namespace
}  // namespace mobiwlan::loc
