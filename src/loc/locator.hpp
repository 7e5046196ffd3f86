// locator.hpp — outlier-resistant kNN matching over the fingerprint DB,
// fused with the PHY AoA and ToF estimates.
//
// A lookup runs two stages over caller-owned scratch with zero allocations
// from begin_query() on:
//   1. Coarse: score every cell on the query's strongest AP's postings list
//      by squared RSSI distance over the query's visible APs and keep the
//      `coarse_keep` best. One branch-free SIMD pass (8 AVX-512 lanes,
//      4 AVX2 lanes or a portable lane loop, per simd::active_tier()) sums
//      each block of entries over the query APs in a register, reading the
//      posting-ordered pair planes (a gather through the postings list for
//      AP pairs without one), and folds every score into one of
//      round_up(coarse_keep, 8) running residue minima. Their maximum T
//      bounds the coarse_keep-th best score from above, so a masked
//      `score <= T` compare keeps a few dozen survivors; each survivor's
//      rank is the count of survivors below it in (score, cell) order,
//      and ranks below coarse_keep are written straight into place.
//   2. Fine: CRISLoc-style trimmed per-AP fingerprint distance (drop the
//      `trim` worst per-AP distances, so one shadowed or refreshed-stale AP
//      cannot veto a match) over the survivors, then an inverse-distance
//      weighted centroid of the k nearest cells.
// locate_fused() then blends in a position derived from the serving AP's
// beamscan AoA (rejected below a peak-ratio confidence floor — which is why
// the estimator's degenerate all-zero case must report ratio 0, not 1) and
// the inverted ToF cycle count.
//
// Determinism: every coarse score is accumulated in ascending AP order
// from +0.0 with separate multiplies and adds, so it is bitwise the same on
// every tier; the kept set is the coarse_keep lexicographically smallest
// (score, cell) pairs in that order (score ties fall to the lowest cell
// id); APs are visited in ascending bit order regardless of observe_ap()
// call order, and every other tie-break is first-seen/lowest-index, so a
// query's result is a pure function of the observation set.
#pragma once

#include <cstdint>
#include <vector>

#include "chan/geometry.hpp"
#include "loc/fingerprint_db.hpp"
#include "phy/aoa.hpp"

namespace mobiwlan::loc {

struct LocatorConfig {
  std::size_t k = 4;                ///< kNN neighborhood for the centroid
  std::size_t coarse_keep = 16;     ///< stage-1 candidates kept (>= 1)
  std::size_t trim = 2;             ///< worst per-AP distances dropped (CRISLoc)
  std::size_t min_kept_aps = 3;     ///< trim only if at least this many remain
  double aoa_min_peak_ratio = 1.3;  ///< fusion rejects weaker beamscan peaks
  double fusion_weight = 0.35;      ///< weight of the AoA/ToF point in the blend
  double max_fused_range_m = 1e4;   ///< reject absurd inverted-ToF ranges
  double tof_clock_hz = 88e6;       ///< must match the channel config
  double tof_bias_ns = 15.0;        ///< must match the channel config
};

struct LocEstimate {
  Vec2 position{};
  std::uint32_t cell = 0;  ///< best-matching cell
  double distance = 0.0;   ///< its trimmed fingerprint distance
  bool valid = false;      ///< false when the query saw no audible AP
};

class Locator {
 public:
  /// Caller-owned per-query state. begin_query() sizes every buffer for
  /// the DB's longest postings list; observe_ap/locate then allocate
  /// nothing (gated by the proptest alloc-hook suite and the bench).
  struct Scratch {
    std::vector<float> feat;  ///< query feature rows, [ap][kFeat]
    std::vector<float> rssi;  ///< query coarse RSSI plane, [ap]
    std::uint64_t mask = 0;
    std::size_t strongest_ap = 0;
    float strongest_rssi = 0.0f;
    std::vector<std::uint32_t> cand;  ///< stage-1 survivors (ascending dist)
    std::vector<double> cand_dist;
    std::vector<double> ap_dist;      ///< per-AP distances of one candidate
    std::vector<double> score;        ///< per-posting-entry coarse scores
    std::vector<double> resid_min;    ///< running minimum per residue class
    /// Entries at or below the threshold, SoA, padded to a lane multiple
    /// with (+inf, UINT32_MAX) so rank blocks need no tail mask.
    std::vector<double> surv_score;
    std::vector<std::uint32_t> surv_cell;
  };
  Locator(const FingerprintDb* db, const LocatorConfig& cfg);

  const LocatorConfig& config() const { return cfg_; }

  void begin_query(Scratch& s) const;

  /// Folds one AP observation into the query. Observations below the DB's
  /// RSSI floor are discarded (the survey could not have heard them
  /// either), which keeps query and stored fingerprints comparable; so are
  /// non-finite ones and any a float cannot hold, which keeps every coarse
  /// score finite.
  void observe_ap(Scratch& s, std::size_t ap, const CsiMatrix& csi,
                  double rssi_dbm) const;

  /// Loads a cell's stored row verbatim as the query (tests, calibration).
  void seed_query_from_cell(Scratch& s, std::size_t cell) const;

  /// Trimmed mean per-AP squared feature distance between the query and a
  /// cell, over the APs visible on both sides; +inf when they share none.
  /// trim_override < 0 uses cfg.trim. Exposed for the property suite.
  double fingerprint_distance(Scratch& s, std::size_t cell,
                              int trim_override = -1) const;

  /// Stage 1 alone: fills s.cand/s.cand_dist with the coarse_keep best
  /// (coarse score, cell) pairs on the strongest AP's postings list, in
  /// ascending order (none when the list is empty). Exposed for the
  /// tier-sweep test.
  void coarse_candidates(Scratch& s) const;

  LocEstimate locate(Scratch& s) const;
  LocEstimate locate_fused(Scratch& s, const AoaEstimate& aoa,
                           std::size_t serving_ap, double tof_cycles) const;

 private:
  const FingerprintDb* db_;
  LocatorConfig cfg_;
};

}  // namespace mobiwlan::loc
