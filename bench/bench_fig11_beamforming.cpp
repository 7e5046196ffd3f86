// Figure 11: SU transmit beamforming (§6.1/§6.3).
//  (a) throughput vs CSI feedback period per mobility mode — static clients
//      prefer long periods (feedback is pure overhead), mobile clients
//      prefer short ones (stale beams lose the array gain);
//  (b) CDF of throughput: adaptive per-mode feedback period vs the stock
//      statically configured 20 ms (paper: +33% median).
#include "core/policy.hpp"
#include "sim/beamforming_sim.hpp"

#include "bench_common.hpp"

namespace mobiwlan {
namespace {

using bench::kMasterSeed;

double run_bf(MobilityClass cls, bool adaptive, double fixed_period,
              std::uint64_t seed) {
  Rng rng(seed);
  // Beamforming links in the paper are the longer office links; keep the
  // default draw range but a single RX chain (the BF client was another AP).
  ScenarioOptions opt;
  opt.channel.n_rx = 1;
  // Beamforming pays off at cell edge: the 4.8 dB array gain is worth 2-3
  // MCS steps there, and stale beams lose all of it.
  opt.min_distance_m = 26.0;
  opt.max_distance_m = 48.0;
  opt.min_link_snr_db = 5.0;
  Scenario s = make_scenario(cls, rng, opt);
  BeamformingSimConfig cfg;
  cfg.duration_s = 10.0;
  cfg.adaptive_period = adaptive;
  cfg.fixed_period_s = fixed_period;
  return simulate_su_beamforming(s, cfg).throughput_mbps;
}

}  // namespace
}  // namespace mobiwlan

int main() {
  using namespace mobiwlan;

  bench::banner("Figure 11(a) — SU-BF throughput vs CSI feedback period",
                "static: monotonically better with longer periods; mobile "
                "modes: an interior optimum, then decay as the beam goes stale");
  {
    const double periods[] = {2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 200e-3};
    TablePrinter t("mean throughput (Mbps) vs feedback period");
    t.set_header({"mode", "2 ms", "5 ms", "10 ms", "20 ms", "50 ms", "200 ms"});
    for (MobilityClass cls : bench::kClasses) {
      std::vector<std::string> row{std::string(to_string(cls))};
      for (double period : periods) {
        SampleSet tput;
        for (int link = 0; link < 6; ++link)
          tput.add(run_bf(cls, false, period, kMasterSeed + 2100 + link));
        row.push_back(TablePrinter::num(tput.mean(), 1));
      }
      t.add_row(row);
    }
    t.print();
  }

  bench::banner("Figure 11(b) — adaptive feedback period vs the stock default",
                "median throughput gain ~33% across mobile links");
  {
    SampleSet adaptive;
    SampleSet fixed_default;
    const MobilityClass mix[] = {MobilityClass::kStatic, MobilityClass::kMicro,
                                 MobilityClass::kMacro, MobilityClass::kEnvironmental};
    const double stock_period = default_params().bf_update_period_s;
    const int links = 16;
    for (int link = 0; link < links; ++link) {
      const MobilityClass cls = mix[link % 4];
      const std::uint64_t seed = kMasterSeed + 2400 + link;
      adaptive.add(run_bf(cls, true, stock_period, seed));
      fixed_default.add(run_bf(cls, false, stock_period, seed));
    }
    std::fputs(render_cdf_table("throughput (Mbps)",
                                {{"default (2 ms)", &fixed_default},
                                 {"motion-aware period", &adaptive}})
                   .c_str(),
               stdout);
    std::printf("\nmedian gain: %+.1f%% (paper: ~+33%%)\n",
                100.0 * (adaptive.median() / fixed_default.median() - 1.0));
  }
  return 0;
}
