#include "loc_common.hpp"

#include <algorithm>
#include <optional>

#include "net/deployment.hpp"
#include "runtime/experiment.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

namespace ml = mobiwlan::loc;

namespace {

constexpr std::uint64_t kDbSalt = 0xBE7CDB;

struct CellRows {
  std::vector<float> row;
  std::vector<float> rssi;
  std::uint64_t mask = 0;
};

// DB digest and the first-4096-query / first-pass checksums, measured at
// these seeds on the unchanged library. Any change to the bits a workload
// computes at a pinned seed fails its output check.
constexpr Pinned kPinned[] = {
    {20140204, 0x8c6e372b80453cbeULL, 0x3976a15181287b92ULL,
     0x01d020d4be2ccae6ULL},
    {7, 0xd36709daee818072ULL, 0x6df7406b526a89d3ULL, 0xe1a09abc559aa5c4ULL},
};

}  // namespace

Survey survey_db(std::uint64_t seed, std::size_t workers) {
  ml::FingerprintDbConfig cfg;
  cfg.cols = 100;
  cfg.rows = 100;
  cfg.pitch_m = 4.0;
  cfg.coverage_radius_m = 60.0;
  cfg.rssi_floor_dbm = -88.0;
  cfg.seed = mobiwlan::Rng(seed).stream(kDbSalt).seed();
  const mobiwlan::ChannelConfig chan_cfg;  // 3x2 antennas, 52 subcarriers

  Survey out;
  out.db = std::make_unique<ml::FingerprintDb>(
      cfg, mobiwlan::WlanDeployment::grid_layout(8, 8, 52.0), chan_cfg);
  const ml::FingerprintDb* db = out.db.get();
  const std::size_t n_aps = db->n_aps();

  mobiwlan::runtime::ThreadPool pool(workers);
  mobiwlan::runtime::BenchReport report;
  mobiwlan::runtime::Experiment exp(pool, seed, &report);
  const auto rows = exp.map<CellRows>(
      db->n_cells(), [db, n_aps](mobiwlan::runtime::Trial& trial) {
        CellRows r;
        r.row.resize(n_aps * ml::kFeat);
        r.rssi.resize(n_aps);
        mobiwlan::ChannelBatch::Scratch scratch;
        db->survey_cell(trial.index, r.row.data(), r.rssi.data(), &r.mask,
                        scratch);
        return r;
      });
  std::vector<float> feat(db->n_cells() * n_aps * ml::kFeat);
  std::vector<float> rssi(db->n_cells() * n_aps);
  std::vector<std::uint64_t> masks(db->n_cells());
  for (std::size_t cell = 0; cell < rows.size(); ++cell) {
    std::copy(
        rows[cell].row.begin(), rows[cell].row.end(),
        feat.begin() + static_cast<std::ptrdiff_t>(cell * n_aps * ml::kFeat));
    std::copy(rows[cell].rssi.begin(), rows[cell].rssi.end(),
              rssi.begin() + static_cast<std::ptrdiff_t>(cell * n_aps));
    masks[cell] = rows[cell].mask;
  }
  out.db->adopt_rows(std::move(feat), std::move(rssi), std::move(masks));
  for (const auto& job : report.jobs) {
    out.busy_s += job.run_s;
    out.wait_s += job.queue_wait_s;
  }
  if (!report.jobs.empty())
    out.wait_s /= static_cast<double>(report.jobs.size());
  return out;
}

std::unique_ptr<mobiwlan::WirelessChannel> query_channel(
    const ml::FingerprintDb& db, std::size_t ap,
    std::shared_ptr<const mobiwlan::Trajectory> traj) {
  return std::make_unique<mobiwlan::WirelessChannel>(
      db.channel_config(), db.ap_position(ap), std::move(traj),
      mobiwlan::Rng(db.config().seed).stream(ml::kSurveySalt ^ ap));
}

std::shared_ptr<mobiwlan::WalkTrajectory> walk_in_db(
    const ml::FingerprintDb& db, double margin_cells, mobiwlan::Rng& rng,
    double duration_s) {
  const auto& cfg = db.config();
  mobiwlan::WalkTrajectory::Config wc;
  const double margin = margin_cells * cfg.pitch_m;
  wc.bounds_min = cfg.origin + mobiwlan::Vec2{margin, margin};
  wc.bounds_max =
      cfg.origin +
      mobiwlan::Vec2{static_cast<double>(cfg.cols) * cfg.pitch_m - margin,
                     static_cast<double>(cfg.rows) * cfg.pitch_m - margin};
  const mobiwlan::Vec2 start{rng.uniform(wc.bounds_min.x, wc.bounds_max.x),
                             rng.uniform(wc.bounds_min.y, wc.bounds_max.y)};
  return std::make_shared<mobiwlan::WalkTrajectory>(start, rng, wc, duration_s);
}

const Pinned* pinned_for(std::uint64_t seed) {
  for (const Pinned& p : kPinned)
    if (p.seed == seed) return &p;
  return nullptr;
}

}  // namespace perfbench
