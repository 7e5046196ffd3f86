// loc_common.hpp — the fingerprint world both loc workloads share: the
// 10^4-cell (100x100 at 4 m), 64-AP database under an 8x8 AP grid at 52 m
// with the paper's 3x2x52 channel, surveyed through the Experiment sharder.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chan/channel.hpp"
#include "chan/trajectory.hpp"
#include "common.hpp"
#include "loc/fingerprint_db.hpp"
#include "loc/locator.hpp"

namespace perfbench {

inline constexpr double kEpochPeriodS = 0.5;  ///< one query per 0.5 s
/// Set-ups per end-to-end run; setup_s is their median.
inline constexpr int kSetups = 5;

struct Survey {
  std::unique_ptr<mobiwlan::loc::FingerprintDb> db;
  double busy_s = 0.0;  ///< summed job run time
  double wait_s = 0.0;  ///< mean job queue wait
};

/// Surveys the database for `seed` on `workers` threads (adopt_rows path).
Survey survey_db(std::uint64_t seed, std::size_t workers);

/// A query-side channel seeing the environment the survey recorded for `ap`.
std::unique_ptr<mobiwlan::WirelessChannel> query_channel(
    const mobiwlan::loc::FingerprintDb& db, std::size_t ap,
    std::shared_ptr<const mobiwlan::Trajectory> traj);

/// A walk confined to the floor minus `margin_cells` cells on every side.
std::shared_ptr<mobiwlan::WalkTrajectory> walk_in_db(
    const mobiwlan::loc::FingerprintDb& db, double margin_cells,
    mobiwlan::Rng& rng, double duration_s);

/// Whether `ap` hears a client at `p` (inside the survey coverage radius).
inline bool audible(const mobiwlan::loc::FingerprintDb& db, std::size_t ap,
                    mobiwlan::Vec2 p) {
  return mobiwlan::distance(db.ap_position(ap), p) <=
         db.config().coverage_radius_m;
}

/// Values the benchmark pins for known seeds (0 = not pinned).
struct Pinned {
  std::uint64_t seed;
  std::uint64_t db_digest;
  std::uint64_t walk_checksum;
  std::uint64_t replay_checksum;
};
const Pinned* pinned_for(std::uint64_t seed);

}  // namespace perfbench
