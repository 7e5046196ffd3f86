// fingerprint_db.hpp — the survey-built CSI fingerprint database.
//
// Layout is SoA and query-shaped: one contiguous float feature row per
// cell ([ap][kFeat] within the row), a separate contiguous coarse RSSI
// plane ([cell][ap]) the first lookup stage streams, a 64-bit AP
// visibility mask per cell, and per-AP postings lists (ascending cell
// ids) so a query only scans the cells its strongest AP actually covers.
//
// Determinism contract: every (cell, AP) survey draws from
// Rng(seed).stream(kSurveySalt ^ ap) — a pure function of the database
// seed and the AP index — so survey_cell(cell) is a pure function of
// (config, AP positions, cell). The bench fans cells out over the
// Experiment sharder and the adopted rows are bitwise identical to a
// serial rebuild at any worker count; digest() pins that.
//
// Seeding per AP (not per cell) is deliberate: the channel realization —
// scatterer draw sequence and, crucially, the absolute-position shadowing
// field — then acts as a fixed *environment* per AP. Neighboring cells see
// smoothly varying fingerprints and a query taken later at the same
// position through the same stream reproduces them, exactly like a real
// building; per-cell seeds would make the map spatially white.
#pragma once

#include <cstdint>
#include <vector>

#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/geometry.hpp"
#include "loc/fingerprint.hpp"
#include "util/rng.hpp"

namespace mobiwlan::loc {

/// Substream salt for survey channels; queries that want to observe the
/// same environment derive their channels from the same streams.
inline constexpr std::uint64_t kSurveySalt = 0x10CA11FDB5ULL;

struct FingerprintDbConfig {
  std::size_t cols = 100;  ///< survey grid cells per row
  std::size_t rows = 100;
  double pitch_m = 4.0;    ///< cell pitch; centers at origin + (i + 0.5) * pitch
  Vec2 origin{0.0, 0.0};
  std::size_t snapshots = 2;        ///< survey samples averaged per (cell, AP)
  double snapshot_spacing_s = 0.5;
  double coverage_radius_m = 60.0;  ///< APs farther from a cell are not surveyed
  double rssi_floor_dbm = -82.0;    ///< visibility-mask threshold + absent-AP fill
  std::uint64_t seed = 0;           ///< survey master seed
};

class FingerprintDb {
 public:
  /// At most 64 APs (one visibility-mask bit each).
  FingerprintDb(const FingerprintDbConfig& cfg, std::vector<Vec2> ap_positions,
                const ChannelConfig& chan_cfg);

  std::size_t n_cells() const { return cfg_.cols * cfg_.rows; }
  std::size_t n_aps() const { return aps_.size(); }
  Vec2 cell_center(std::size_t cell) const;
  std::size_t nearest_cell(Vec2 p) const;

  /// Surveys one cell: features for every covered-and-audible AP into
  /// row[0 .. n_aps()*kFeat), the coarse RSSI plane into
  /// rssi_row[0 .. n_aps()), and the visibility mask. Invisible APs leave
  /// zeroed features and the rssi_floor_dbm fill, so asymmetric visibility
  /// costs coarse distance. Pure function of (config, AP positions, cell);
  /// see the header comment for why that makes the parallel build bitwise.
  void survey_cell(std::size_t cell, float* row, float* rssi_row,
                   std::uint64_t* mask, ChannelBatch::Scratch& scratch) const;

  /// Serial build: survey every cell, then index. The bench fans
  /// survey_cell over an Experiment instead and calls adopt_rows().
  void build();

  /// Installs externally surveyed rows (the parallel-build path) and
  /// rebuilds the postings index. The vectors must hold survey_cell output
  /// for every cell in index order.
  void adopt_rows(std::vector<float> rows, std::vector<float> rssi,
                  std::vector<std::uint64_t> masks);

  const float* cell_features(std::size_t cell) const {
    return &features_[cell * n_aps() * kFeat];
  }
  const float* cell_rssi(std::size_t cell) const {
    return &rssi_[cell * n_aps()];
  }
  /// Transposed coarse plane: one AP's RSSI over every cell, contiguous.
  /// The coarse lookup stage gathers from it through the postings list for
  /// AP pairs without a pair plane — same values as cell_rssi(), kept in
  /// sync by adopt_rows()/build()/refresh().
  const float* rssi_plane(std::size_t ap) const {
    return &rssi_by_ap_[ap * n_cells()];
  }
  /// Posting-ordered coarse plane for an AP pair: entry i is AP `a`'s RSSI
  /// at cell postings(s)[i]. Precomputed for every pair of APs close enough
  /// to share audible cells (within 2x the coverage radius), so the coarse
  /// stage loads contiguous blocks with no per-entry cell indirection.
  /// nullptr when the pair is out of range (the caller falls back to
  /// gathering from rssi_plane()). Same values either way; kept in sync by
  /// adopt_rows()/build()/refresh().
  const float* pair_plane(std::size_t s, std::size_t a) const {
    const std::uint64_t off = pair_off_[s * n_aps() + a];
    return off == 0 ? nullptr : &pair_plane_[off - 1];
  }
  /// Packed fine-stage row: the cell's audible APs' features back to back,
  /// mask-bit order ([rank][kFeat], rank = popcount of lower mask bits).
  /// Identical values to cell_features() but ~mean_visible*kFeat floats per
  /// cell instead of n_aps()*kFeat, so the whole table stays cache-resident
  /// where the full [cell][ap][kFeat] array would thrash — the fine stage
  /// walks two cache lines per candidate instead of gathering across a 2 KiB
  /// row. Kept in sync by adopt_rows()/build()/refresh().
  const float* packed_features(std::size_t cell) const {
    return &packed_feat_[packed_off_[cell]];
  }
  std::uint64_t cell_mask(std::size_t cell) const { return masks_[cell]; }
  /// Cells (ascending) whose mask includes `ap`.
  const std::vector<std::uint32_t>& postings(std::size_t ap) const {
    return postings_[ap];
  }
  /// Length of the longest postings list: the locator sizes its per-query
  /// scratch to it once, so a lookup never grows a buffer.
  std::size_t max_posting() const { return max_posting_; }

  /// Blends a query fingerprint into a stored cell (EWMA with weight alpha
  /// toward the query) for every AP visible on both sides, and counts one
  /// write. Masks and postings are left untouched: a refresh updates what a
  /// cell looks like, not which APs cover it.
  void refresh(std::size_t cell, const float* query_row,
               const float* query_rssi, std::uint64_t query_mask, double alpha);

  std::uint64_t writes() const { return writes_; }

  /// FNV-1a over every feature bit, RSSI plane entry and mask — one word
  /// differing anywhere in the database changes it.
  std::uint64_t digest() const;

  const FingerprintDbConfig& config() const { return cfg_; }
  Vec2 ap_position(std::size_t ap) const { return aps_[ap]; }
  const ChannelConfig& channel_config() const { return chan_cfg_; }

 private:
  void rebuild_postings();
  void rebuild_planes();
  void repack_cell(std::size_t cell);

  FingerprintDbConfig cfg_;
  std::vector<Vec2> aps_;
  ChannelConfig chan_cfg_;
  std::vector<float> features_;  ///< [cell][ap][kFeat]
  std::vector<float> rssi_;      ///< [cell][ap] coarse plane
  std::vector<float> rssi_by_ap_;  ///< [ap][cell] transposed coarse plane
  std::vector<float> packed_feat_;       ///< audible-AP features, packed
  std::vector<std::uint64_t> packed_off_;  ///< per-cell offset into packed_feat_
  std::vector<float> pair_plane_;        ///< posting-ordered coarse planes
  std::vector<std::uint64_t> pair_off_;  ///< [s][a] offset+1, 0 = absent
  std::vector<std::uint64_t> masks_;
  std::vector<std::vector<std::uint32_t>> postings_;
  std::size_t max_posting_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace mobiwlan::loc
