// synthetic_db.hpp — fingerprint databases installed straight from chosen
// rows (FingerprintDb::adopt_rows), for locator tests that need exact
// control over postings lengths, pair-plane coverage and score ties.
#pragma once

#include <cstdint>
#include <vector>

#include "chan/channel.hpp"
#include "loc/fingerprint_db.hpp"
#include "util/rng.hpp"

namespace mobiwlan::loc::synthetic {

/// APs 0..7 sit 10 m apart, so every pair among them has a pair plane;
/// APs 8.. sit >= 200 m from every other AP, beyond twice the coverage
/// radius, so any pair involving them takes the coarse stage's gather path.
inline std::vector<Vec2> ap_layout(std::size_t n_aps) {
  std::vector<Vec2> aps;
  for (std::size_t a = 0; a < n_aps; ++a)
    aps.push_back(a < 8 ? Vec2{10.0 * static_cast<double>(a), 0.0}
                        : Vec2{200.0 * static_cast<double>(a), 500.0});
  return aps;
}

/// One row of n_cells cells; the survey settings never run (rows are
/// adopted), only the floor fill and the pair-plane radius matter.
inline FingerprintDbConfig db_config(std::size_t n_cells) {
  FingerprintDbConfig cfg;
  cfg.cols = n_cells;
  cfg.rows = 1;
  cfg.coverage_radius_m = 60.0;
  return cfg;
}

/// Installs rows where fill(cell, ap, rssi, feat) decides audibility (its
/// return value) and writes the audible RSSI and the kFeat features.
template <class Fill>
FingerprintDb adopt(std::size_t n_cells, std::size_t n_aps, Fill fill) {
  FingerprintDb db(db_config(n_cells), ap_layout(n_aps), ChannelConfig{});
  const float floor_fill = static_cast<float>(db.config().rssi_floor_dbm);
  std::vector<float> rows(n_cells * n_aps * kFeat, 0.0f);
  std::vector<float> rssi(n_cells * n_aps, floor_fill);
  std::vector<std::uint64_t> masks(n_cells, 0);
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (std::size_t a = 0; a < n_aps; ++a) {
      float* feat = &rows[(c * n_aps + a) * kFeat];
      if (!fill(c, a, feat)) continue;
      masks[c] |= std::uint64_t{1} << a;
      rssi[c * n_aps + a] = feat[0];
    }
  }
  db.adopt_rows(std::move(rows), std::move(rssi), std::move(masks));
  return db;
}

/// AP 0 is audible in exactly posting_len of the n_cells cells (a random
/// subset), every other AP in about half. Audible RSSI is uniform in
/// [-80, -30] dBm or, when `quantized`, one of the five integers -64..-60,
/// so that many coarse scores tie exactly.
inline FingerprintDb random_db(std::size_t n_cells, std::size_t n_aps,
                               std::size_t posting_len, bool quantized,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> in_posting(n_cells, false);
  for (std::size_t placed = 0; placed < posting_len;) {
    const auto c = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n_cells) - 1));
    if (!in_posting[c]) {
      in_posting[c] = true;
      ++placed;
    }
  }
  return adopt(n_cells, n_aps, [&](std::size_t c, std::size_t a, float* feat) {
    if (a == 0 ? !in_posting[c] : !rng.chance(0.5)) return false;
    feat[0] = quantized ? static_cast<float>(rng.uniform_int(-64, -60))
                        : static_cast<float>(rng.uniform(-80.0, -30.0));
    for (std::size_t f = 1; f < kFeat; ++f)
      feat[f] = static_cast<float>(rng.uniform(-100.0, -40.0));
    return true;
  });
}

/// Every AP audible in every cell with one shared fingerprint: every coarse
/// score ties, so every entry survives the threshold and stage 1 must keep
/// the lowest cell ids.
inline FingerprintDb all_ties_db(std::size_t n_cells, std::size_t n_aps) {
  return adopt(n_cells, n_aps, [](std::size_t, std::size_t, float* feat) {
    feat[0] = -60.0f;
    for (std::size_t f = 1; f < kFeat; ++f) feat[f] = -70.0f;
    return true;
  });
}

}  // namespace mobiwlan::loc::synthetic
