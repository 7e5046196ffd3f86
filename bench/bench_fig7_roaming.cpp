// Figure 7: client roaming (§3).
//  (a) throughput gain of always using the strongest AP vs sticking with the
//      current one, per mobility mode — only "moving away" gains much;
//  (b) walking-client throughput CDFs for the default client, the
//      sensor-hint client ([1]), and the paper's controller-based
//      motion-aware roaming (~30% median gain over default).
#include "net/roaming.hpp"

#include "bench_common.hpp"

namespace mobiwlan {
namespace {

using bench::kMasterSeed;

constexpr double kSpacing = 35.0;  // must match corridor_layout()

std::shared_ptr<const Trajectory> trajectory_for(MobilityMode mode, Rng& rng,
                                                 double corridor_len) {
  const Vec2 start{rng.uniform(10.0, corridor_len - 10.0), rng.uniform(-6.0, 6.0)};
  switch (mode) {
    case MobilityMode::kStatic:
    case MobilityMode::kEnvironmental:
      return std::make_shared<StaticTrajectory>(start);
    case MobilityMode::kMicro:
      return std::make_shared<MicroTrajectory>(start, rng);
    case MobilityMode::kMacroToward: {
      // Walk toward the nearest AP along the corridor: the serving AP only
      // gets closer, so roaming should buy nothing.
      const double nearest = std::round(start.x / kSpacing) * kSpacing;
      const Vec2 dir{nearest - start.x, -start.y};
      return std::make_shared<LinearTrajectory>(start, dir, 1.2);
    }
    case MobilityMode::kMacroAway: {
      // Walk away from the nearest AP down the corridor, toward its
      // neighbor: exactly the case where a better AP appears mid-walk.
      const double nearest = std::round(start.x / kSpacing) * kSpacing;
      double away = start.x >= nearest ? 1.0 : -1.0;
      // Head toward the interior so a neighbor AP actually exists.
      if (nearest <= 0.0) away = 1.0;
      if (nearest >= corridor_len) away = -1.0;
      return std::make_shared<LinearTrajectory>(start, Vec2{away, 0.05}, 1.2);
    }
    case MobilityMode::kMacroOrbit: {
      // Circle the nearest AP at the starting distance. The figure's sweep
      // leaves this mode out: the paper's roaming study has no AoA.
      const Vec2 ap{std::round(start.x / kSpacing) * kSpacing, 0.0};
      const Vec2 off{start.x - ap.x, start.y - ap.y};
      return std::make_shared<CircularTrajectory>(
          ap, std::hypot(off.x, off.y), 1.2, std::atan2(off.y, off.x));
    }
  }
  return std::make_shared<StaticTrajectory>(start);
}

}  // namespace
}  // namespace mobiwlan

int main() {
  using namespace mobiwlan;
  Rng master(kMasterSeed);
  const double corridor_len = 5.0 * kSpacing;

  bench::banner("Figure 7(a) — gain from roaming to the strongest AP vs sticking",
                "marginal for static/environmental/micro and moving-toward; "
                "significant only when moving away from the current AP");
  {
    TablePrinter t("oracle-vs-stick throughput gain per mobility mode");
    t.set_header({"mode", "median gain", "p75 gain"});
    for (MobilityMode mode :
         {MobilityMode::kMacroToward, MobilityMode::kEnvironmental,
          MobilityMode::kMicro, MobilityMode::kStatic, MobilityMode::kMacroAway}) {
      SampleSet gains;
      for (int trial = 0; trial < 10; ++trial) {
        Rng rng = master.split();
        ChannelConfig cfg;
        cfg.activity = mode == MobilityMode::kEnvironmental
                           ? EnvironmentalActivity::kStrong
                           : EnvironmentalActivity::kNone;
        auto traj = trajectory_for(mode, rng, corridor_len);
        WlanDeployment wlan(WlanDeployment::corridor_layout(), traj, cfg, rng);
        RoamingConfig rc;
        rc.duration_s = 30.0;  // a full inter-AP gap at walking speed
        const auto [oracle, stick] = oracle_vs_stick(wlan, rc);
        gains.add(stick > 0 ? oracle / stick - 1.0 : 0.0);
      }
      t.add_row({std::string(to_string(mode)), TablePrinter::pct(gains.median()),
                 TablePrinter::pct(gains.quantile(0.75))});
    }
    t.print();
  }

  bench::banner("Figure 7(b) — walking-client throughput per roaming scheme",
                "motion-aware > sensor-hint > default; ~30% median gain of "
                "motion-aware over the default sticky client");
  {
    SampleSet by_scheme[3];
    int handoffs[3] = {0, 0, 0};
    const int walks = 12;
    for (int walk = 0; walk < walks; ++walk) {
      for (int si = 0; si < 3; ++si) {
        // Identical walk + deployment per scheme (same seeds).
        Rng rng(kMasterSeed + 1000 + walk);
        auto traj = WlanDeployment::corridor_walk(rng);
        WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                            ChannelConfig{}, rng);
        RoamingConfig rc;
        rc.duration_s = 75.0;
        Rng sim_rng(kMasterSeed + 2000 + walk);
        const auto scheme = static_cast<RoamingScheme>(si);
        const RoamingResult r = simulate_roaming(wlan, scheme, rc, sim_rng);
        by_scheme[si].add(r.mean_throughput_mbps);
        handoffs[si] += r.handoffs;
      }
    }
    std::fputs(render_cdf_table("throughput (Mbps) per scheme",
                                {{"default", &by_scheme[0]},
                                 {"sensor-hint", &by_scheme[1]},
                                 {"motion-aware", &by_scheme[2]}})
                   .c_str(),
               stdout);
    std::printf("\nhandoffs per walk: default %.1f | sensor-hint %.1f | "
                "motion-aware %.1f\n",
                static_cast<double>(handoffs[0]) / walks,
                static_cast<double>(handoffs[1]) / walks,
                static_cast<double>(handoffs[2]) / walks);
    std::printf("median gain over default: sensor-hint %+.1f%% | "
                "motion-aware %+.1f%% (paper: motion-aware ~+30%%, above "
                "sensor-hint)\n",
                100.0 * (by_scheme[1].median() / by_scheme[0].median() - 1.0),
                100.0 * (by_scheme[2].median() / by_scheme[0].median() - 1.0));
  }
  return 0;
}
