// Figure 12: MU-MIMO with per-client CSI feedback periods (§6.2/§6.3),
// reproduced with the same trace-based zero-forcing emulation methodology
// the paper used (their AP lacked 802.11ac, as does our simulated one).
//  (a) per-client throughput vs (common) feedback period for a 3-client mix
//      of environmental / micro / macro mobility;
//  (b) CDF of the throughput gain of per-client adaptive periods over the
//      static 20 ms configuration across random 3-client draws (~40% mean).
#include "sim/beamforming_sim.hpp"

#include "bench_common.hpp"

namespace mobiwlan {
namespace {

using bench::kMasterSeed;

ScenarioOptions client_options() {
  ScenarioOptions opt;
  opt.channel.n_rx = 1;  // single-antenna MU-MIMO clients
  return opt;
}

struct Trio {
  Scenario env;
  Scenario micro;
  Scenario macro;
};

Trio make_trio(std::uint64_t seed) {
  Rng rng(seed);
  const auto opt = client_options();
  Trio trio{make_scenario(MobilityClass::kEnvironmental, rng, opt),
            make_scenario(MobilityClass::kMicro, rng, opt),
            make_scenario(MobilityClass::kMacro, rng, opt)};
  return trio;
}

}  // namespace
}  // namespace mobiwlan

int main() {
  using namespace mobiwlan;

  bench::banner("Figure 12(a) — MU-MIMO throughput vs CSI feedback period",
                "3 clients (env/micro/macro): stale feedback collapses the "
                "mobile client's SINR while static clients barely move");
  {
    const double periods[] = {2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 200e-3};
    TablePrinter t("per-client throughput (Mbps) vs feedback period");
    t.set_header({"period", "environmental", "micro", "macro", "total"});
    for (double period : periods) {
      double sums[4] = {0, 0, 0, 0};
      const int draws = 4;
      for (int draw = 0; draw < draws; ++draw) {
        Trio trio = make_trio(kMasterSeed + 3000 + draw);
        BeamformingSimConfig cfg;
        cfg.duration_s = 8.0;
        cfg.fixed_period_s = period;
        const auto r =
            simulate_mu_mimo({&trio.env, &trio.micro, &trio.macro}, cfg);
        for (int k = 0; k < 3; ++k) sums[k] += r.per_client_mbps[k];
        sums[3] += r.total_mbps;
      }
      char label[32];
      std::snprintf(label, sizeof(label), "%.0f ms", period * 1e3);
      t.add_row({label, TablePrinter::num(sums[0] / draws, 1),
                 TablePrinter::num(sums[1] / draws, 1),
                 TablePrinter::num(sums[2] / draws, 1),
                 TablePrinter::num(sums[3] / draws, 1)});
    }
    t.print();
  }

  bench::banner("Figure 12(b) — adaptive per-client periods vs 2 ms default",
                "gain for every client mix; largest for macro clients; "
                "~40% average network-throughput improvement");
  {
    SampleSet gains;
    SampleSet macro_gains;
    const int draws = 12;
    for (int draw = 0; draw < draws; ++draw) {
      const std::uint64_t seed = kMasterSeed + 3500 + draw;
      MuMimoSimResult adaptive;
      MuMimoSimResult fixed;
      for (int mode = 0; mode < 2; ++mode) {
        Trio trio = make_trio(seed);  // identical channels for both schemes
        BeamformingSimConfig cfg;
        cfg.duration_s = 8.0;
        cfg.adaptive_period = mode == 0;
        cfg.fixed_period_s = 2e-3;  // the stock always-sound default
        const auto r =
            simulate_mu_mimo({&trio.env, &trio.micro, &trio.macro}, cfg);
        (mode == 0 ? adaptive : fixed) = r;
      }
      gains.add(adaptive.total_mbps / fixed.total_mbps - 1.0);
      macro_gains.add(adaptive.per_client_mbps[2] / fixed.per_client_mbps[2] - 1.0);
    }
    std::fputs(render_cdf_table("throughput gain (fraction)",
                                {{"network total", &gains},
                                 {"macro client", &macro_gains}})
                   .c_str(),
               stdout);
    std::printf("\nmean network gain: %+.1f%% (paper: ~+40%%); macro-client "
                "mean gain: %+.1f%% (paper: largest of the three)\n",
                100.0 * gains.mean(), 100.0 * macro_gains.mean());
  }
  return 0;
}
