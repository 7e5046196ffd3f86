#include "loc/fingerprint_db.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "campus/stats_stream.hpp"
#include "chan/trajectory.hpp"

namespace mobiwlan::loc {

FingerprintDb::FingerprintDb(const FingerprintDbConfig& cfg,
                             std::vector<Vec2> ap_positions,
                             const ChannelConfig& chan_cfg)
    : cfg_(cfg), aps_(std::move(ap_positions)), chan_cfg_(chan_cfg) {
  assert(aps_.size() <= 64 && "visibility mask is one u64 per cell");
  features_.assign(n_cells() * n_aps() * kFeat, 0.0f);
  rssi_.assign(n_cells() * n_aps(), static_cast<float>(cfg_.rssi_floor_dbm));
  rssi_by_ap_.assign(n_aps() * n_cells(),
                     static_cast<float>(cfg_.rssi_floor_dbm));
  masks_.assign(n_cells(), 0);
  postings_.resize(n_aps());
}

Vec2 FingerprintDb::cell_center(std::size_t cell) const {
  const std::size_t col = cell % cfg_.cols;
  const std::size_t row = cell / cfg_.cols;
  return cfg_.origin + Vec2{(static_cast<double>(col) + 0.5) * cfg_.pitch_m,
                            (static_cast<double>(row) + 0.5) * cfg_.pitch_m};
}

std::size_t FingerprintDb::nearest_cell(Vec2 p) const {
  const auto clamp_axis = [&](double v, std::size_t n) {
    double f = std::floor(v / cfg_.pitch_m);
    if (f < 0.0) f = 0.0;
    std::size_t i = static_cast<std::size_t>(f);
    return i >= n ? n - 1 : i;
  };
  const std::size_t col = clamp_axis(p.x - cfg_.origin.x, cfg_.cols);
  const std::size_t row = clamp_axis(p.y - cfg_.origin.y, cfg_.rows);
  return row * cfg_.cols + col;
}

void FingerprintDb::survey_cell(std::size_t cell, float* row, float* rssi_row,
                                std::uint64_t* mask,
                                ChannelBatch::Scratch& scratch) const {
  const Vec2 center = cell_center(cell);
  const float floor_fill = static_cast<float>(cfg_.rssi_floor_dbm);
  for (std::size_t f = 0; f < n_aps() * kFeat; ++f) row[f] = 0.0f;
  for (std::size_t a = 0; a < n_aps(); ++a) rssi_row[a] = floor_fill;
  *mask = 0;

  float feat[kFeat];
  double acc[kFeat];
  ChannelSample smp;
  for (std::size_t ap = 0; ap < n_aps(); ++ap) {
    if (distance(aps_[ap], center) > cfg_.coverage_radius_m) continue;

    // The per-AP survey stream: every cell replays the same realization
    // draws, so the AP's environment (scatterer sequence, shadow field) is
    // shared across the whole grid and with later same-stream queries.
    auto traj = std::make_shared<StaticTrajectory>(center);
    WirelessChannel ch(chan_cfg_, aps_[ap], traj,
                       Rng(cfg_.seed).stream(kSurveySalt ^ ap));

    for (std::size_t f = 0; f < kFeat; ++f) acc[f] = 0.0;
    for (std::size_t s = 0; s < cfg_.snapshots; ++s) {
      ChannelBatch::sample_link(ch, static_cast<double>(s) * cfg_.snapshot_spacing_s,
                                smp, scratch);
      extract_features(smp.csi, smp.rssi_dbm, feat);
      for (std::size_t f = 0; f < kFeat; ++f) acc[f] += static_cast<double>(feat[f]);
    }
    const double inv = 1.0 / static_cast<double>(cfg_.snapshots);
    const double mean_rssi = acc[0] * inv;
    if (mean_rssi < cfg_.rssi_floor_dbm) continue;  // inaudible: not surveyed

    *mask |= std::uint64_t{1} << ap;
    for (std::size_t f = 0; f < kFeat; ++f)
      row[ap * kFeat + f] = static_cast<float>(acc[f] * inv);
    rssi_row[ap] = row[ap * kFeat];
  }
}

void FingerprintDb::build() {
  ChannelBatch::Scratch scratch;
  for (std::size_t cell = 0; cell < n_cells(); ++cell)
    survey_cell(cell, &features_[cell * n_aps() * kFeat],
                &rssi_[cell * n_aps()], &masks_[cell], scratch);
  rebuild_postings();
  rebuild_planes();
}

void FingerprintDb::adopt_rows(std::vector<float> rows, std::vector<float> rssi,
                               std::vector<std::uint64_t> masks) {
  assert(rows.size() == n_cells() * n_aps() * kFeat);
  assert(rssi.size() == n_cells() * n_aps());
  assert(masks.size() == n_cells());
  features_ = std::move(rows);
  rssi_ = std::move(rssi);
  masks_ = std::move(masks);
  rebuild_postings();
  rebuild_planes();
}

void FingerprintDb::rebuild_planes() {
  for (std::size_t ap = 0; ap < n_aps(); ++ap)
    for (std::size_t cell = 0; cell < n_cells(); ++cell)
      rssi_by_ap_[ap * n_cells() + cell] = rssi_[cell * n_aps() + ap];

  packed_off_.assign(n_cells() + 1, 0);
  for (std::size_t cell = 0; cell < n_cells(); ++cell)
    packed_off_[cell + 1] =
        packed_off_[cell] +
        static_cast<std::uint64_t>(std::popcount(masks_[cell])) * kFeat;
  packed_feat_.assign(packed_off_[n_cells()], 0.0f);
  for (std::size_t cell = 0; cell < n_cells(); ++cell) repack_cell(cell);

  // Pair planes: two APs can share an audible cell only when they sit
  // within 2x the coverage radius of each other.
  pair_off_.assign(n_aps() * n_aps(), 0);
  pair_plane_.clear();
  for (std::size_t s = 0; s < n_aps(); ++s) {
    const std::vector<std::uint32_t>& posting = postings_[s];
    if (posting.empty()) continue;
    for (std::size_t a = 0; a < n_aps(); ++a) {
      if (distance(aps_[s], aps_[a]) > 2.0 * cfg_.coverage_radius_m) continue;
      pair_off_[s * n_aps() + a] = pair_plane_.size() + 1;
      for (const std::uint32_t cell : posting)
        pair_plane_.push_back(rssi_by_ap_[a * n_cells() + cell]);
    }
  }
}

void FingerprintDb::repack_cell(std::size_t cell) {
  const float* row = &features_[cell * n_aps() * kFeat];
  float* packed = &packed_feat_[packed_off_[cell]];
  std::uint64_t bits = masks_[cell];
  std::size_t rank = 0;
  while (bits != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    for (std::size_t f = 0; f < kFeat; ++f)
      packed[rank * kFeat + f] = row[ap * kFeat + f];
    ++rank;
  }
}

void FingerprintDb::rebuild_postings() {
  for (auto& p : postings_) p.clear();
  for (std::size_t cell = 0; cell < n_cells(); ++cell) {
    std::uint64_t bits = masks_[cell];
    while (bits != 0) {
      const int ap = std::countr_zero(bits);
      bits &= bits - 1;
      postings_[static_cast<std::size_t>(ap)].push_back(
          static_cast<std::uint32_t>(cell));
    }
  }
  max_posting_ = 0;
  for (const auto& p : postings_)
    max_posting_ = std::max(max_posting_, p.size());
}

void FingerprintDb::refresh(std::size_t cell, const float* query_row,
                            const float* query_rssi, std::uint64_t query_mask,
                            double alpha) {
  std::uint64_t both = masks_[cell] & query_mask;
  float* row = &features_[cell * n_aps() * kFeat];
  float* rrow = &rssi_[cell * n_aps()];
  while (both != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(both));
    both &= both - 1;
    for (std::size_t f = 0; f < kFeat; ++f) {
      const std::size_t i = ap * kFeat + f;
      row[i] = static_cast<float>((1.0 - alpha) * static_cast<double>(row[i]) +
                                  alpha * static_cast<double>(query_row[i]));
    }
    rrow[ap] = row[ap * kFeat];
    rssi_by_ap_[ap * n_cells() + cell] = rrow[ap];
    // Mirror into every posting-ordered pair plane that carries this
    // (cell, ap) entry: the cell appears in postings(s) for exactly the
    // APs s in its visibility mask.
    std::uint64_t owners = masks_[cell];
    while (owners != 0) {
      const std::size_t s = static_cast<std::size_t>(std::countr_zero(owners));
      owners &= owners - 1;
      const std::uint64_t off = pair_off_[s * n_aps() + ap];
      if (off == 0) continue;
      const std::vector<std::uint32_t>& posting = postings_[s];
      const auto it = std::lower_bound(posting.begin(), posting.end(),
                                       static_cast<std::uint32_t>(cell));
      pair_plane_[off - 1 + static_cast<std::size_t>(it - posting.begin())] =
          rrow[ap];
    }
    (void)query_rssi;
  }
  repack_cell(cell);
  ++writes_;
}

std::uint64_t FingerprintDb::digest() const {
  std::uint64_t h = campus::kFnvOffset;
  for (const float f : features_)
    h = campus::fnv1a_mix(h, static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(f)));
  for (const float f : rssi_)
    h = campus::fnv1a_mix(h, static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(f)));
  for (const std::uint64_t m : masks_) h = campus::fnv1a_mix(h, m);
  return h;
}

}  // namespace mobiwlan::loc
