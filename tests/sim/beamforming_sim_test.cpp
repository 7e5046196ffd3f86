// Tests for the SU beamforming and MU-MIMO emulators (§6).
#include "sim/beamforming_sim.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "trace/trace_source.hpp"
#include "util/alloc_count.hpp"

namespace mobiwlan {
namespace {

BeamformingSimConfig short_config() {
  BeamformingSimConfig cfg;
  cfg.duration_s = 5.0;
  return cfg;
}

ScenarioOptions single_antenna_options() {
  ScenarioOptions opt;
  opt.channel.n_rx = 1;
  return opt;
}

TEST(SuBeamformingSimTest, ProducesThroughputAndGain) {
  Rng rng(1);
  Scenario s = make_scenario(MobilityClass::kStatic, rng);
  const auto r = simulate_su_beamforming(s, short_config());
  EXPECT_GT(r.throughput_mbps, 5.0);
  EXPECT_GT(r.mean_gain_db, 2.0);  // static client: near-full array gain
  EXPECT_GE(r.overhead_fraction, 0.0);
  EXPECT_LT(r.overhead_fraction, 0.5);
}

TEST(SuBeamformingSimTest, ShortPeriodMoreOverhead) {
  Rng rng1(3);
  Rng rng2(3);
  Scenario a = make_scenario(MobilityClass::kStatic, rng1);
  Scenario b = make_scenario(MobilityClass::kStatic, rng2);
  BeamformingSimConfig fast = short_config();
  fast.fixed_period_s = 2e-3;
  BeamformingSimConfig slow = short_config();
  slow.fixed_period_s = 50e-3;
  const auto fast_result = simulate_su_beamforming(a, fast);
  const auto slow_result = simulate_su_beamforming(b, slow);
  EXPECT_GT(fast_result.overhead_fraction, slow_result.overhead_fraction * 5.0);
}

TEST(SuBeamformingSimTest, StaticClientPrefersLongPeriod) {
  // Fig. 11(a) left edge: frequent feedback only adds overhead.
  auto run = [](double period) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      Rng rng(10 + i);
      Scenario s = make_scenario(MobilityClass::kStatic, rng);
      BeamformingSimConfig cfg;
      cfg.duration_s = 5.0;
      cfg.fixed_period_s = period;
      total += simulate_su_beamforming(s, cfg).throughput_mbps;
    }
    return total;
  };
  EXPECT_GT(run(200e-3), run(2e-3));
}

TEST(SuBeamformingSimTest, MacroClientGainDecaysWithPeriod) {
  auto mean_gain = [](double period) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      Rng rng(30 + i);
      Scenario s = make_scenario(MobilityClass::kMacro, rng);
      BeamformingSimConfig cfg;
      cfg.duration_s = 5.0;
      cfg.fixed_period_s = period;
      total += simulate_su_beamforming(s, cfg).mean_gain_db;
    }
    return total / 3.0;
  };
  EXPECT_GT(mean_gain(2e-3), mean_gain(200e-3) + 1.0);
}

TEST(SuBeamformingSimTest, AdaptivePeriodRuns) {
  Rng rng(5);
  Scenario s = make_scenario(MobilityClass::kMacro, rng);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  EXPECT_GT(simulate_su_beamforming(s, cfg).throughput_mbps, 1.0);
}

TEST(MuMimoSimTest, ServesThreeClients) {
  Rng rng(7);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
  const auto r = simulate_mu_mimo({&a, &b, &c}, short_config());
  ASSERT_EQ(r.per_client_mbps.size(), 3u);
  for (double mbps : r.per_client_mbps) EXPECT_GT(mbps, 0.5);
  EXPECT_NEAR(r.total_mbps,
              r.per_client_mbps[0] + r.per_client_mbps[1] + r.per_client_mbps[2],
              1e-9);
}

TEST(MuMimoSimTest, ServesTwoClients) {
  // A braced pair of Scenario pointers resolves to the Scenario overload.
  Rng rng(15);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMacro, rng, opt);
  const auto r = simulate_mu_mimo({&a, &b}, short_config());
  ASSERT_EQ(r.per_client_mbps.size(), 2u);
  for (double mbps : r.per_client_mbps) EXPECT_GT(mbps, 0.5);
}

TEST(MuMimoSimTest, RejectsMultiAntennaClients) {
  // Default scenarios have n_rx = 2; zero-forcing serves n_rx = 1 clients.
  Rng rng(16);
  Scenario a = make_scenario(MobilityClass::kStatic, rng);
  Scenario b = make_scenario(MobilityClass::kMacro, rng);
  EXPECT_THROW(simulate_mu_mimo({&a, &b}, short_config()),
               std::invalid_argument);
}

TEST(MuMimoSimTest, StaleFeedbackHurtsMobileClientMost) {
  // Fig. 12(a): with a long fixed period, the macro client's share collapses
  // relative to a short period, while static clients barely move.
  auto run = [&](double period) {
    Rng rng(9);
    const auto opt = single_antenna_options();
    Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
    Scenario b = make_scenario(MobilityClass::kStatic, rng, opt);
    Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
    BeamformingSimConfig cfg;
    cfg.duration_s = 5.0;
    cfg.fixed_period_s = period;
    return simulate_mu_mimo({&a, &b, &c}, cfg);
  };
  const auto fast = run(5e-3);
  const auto slow = run(100e-3);
  const double macro_ratio = slow.per_client_mbps[2] /
                             std::max(fast.per_client_mbps[2], 1e-9);
  EXPECT_LT(macro_ratio, 0.85);
}

TEST(MuMimoSimTest, AdaptivePeriodRuns) {
  Rng rng(11);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg = short_config();
  cfg.adaptive_period = true;
  const auto r = simulate_mu_mimo({&a, &b, &c}, cfg);
  EXPECT_GT(r.total_mbps, 1.0);
}

TEST(SuBeamformingSimTest, AllocationsDoNotGrowWithDuration) {
  // Every per-slot buffer is hoisted and the gain kernel reads CSI in
  // place, so a longer run allocates nothing more than a short one.
  ASSERT_TRUE(alloc_hook_active())
      << "link mobiwlan_alloc_hook or the assertion is vacuous";
  auto allocs = [](double duration_s) {
    Rng rng(13);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    BeamformingSimConfig cfg;
    cfg.duration_s = duration_s;
    cfg.adaptive_period = true;
    const std::uint64_t before = alloc_count();
    (void)simulate_su_beamforming(s, cfg);
    return alloc_count() - before;
  };
  (void)allocs(1.0);  // absorbs the process's one-time lazy initialization
  const std::uint64_t short_run = allocs(1.0);
  const std::uint64_t long_run = allocs(5.0);
  EXPECT_EQ(short_run, long_run);
}

// ---- §6.2 trace-driven emulation: RecordingSource / TraceSource -------------

std::string tmp(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Live MU-MIMO run with client i's reads recorded to paths[i].
MuMimoSimResult record_mu_mimo(const std::vector<Scenario*>& clients,
                               const std::vector<std::string>& paths,
                               const BeamformingSimConfig& cfg) {
  std::deque<trace::LiveChannelSource> live;
  std::deque<trace::TraceWriter> writers;
  std::deque<trace::RecordingSource> recs;
  std::vector<trace::ObservableSource*> sources;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    WirelessChannel& ch = *clients[i]->channel;
    live.emplace_back(ch);
    writers.emplace_back(paths[i], trace::RecordingSource::header_for(
                                       live.back(), ch.config()));
    recs.emplace_back(live.back(), writers.back());
    sources.push_back(&recs.back());
  }
  const MuMimoSimResult r = simulate_mu_mimo(sources, cfg);
  for (auto& w : writers) w.close();
  return r;
}

/// MU-MIMO run replayed from paths; adds the replays' missing counts.
MuMimoSimResult replay_mu_mimo(const std::vector<std::string>& paths,
                               const BeamformingSimConfig& cfg,
                               const trace::TraceSource::Config& tc,
                               std::uint64_t* missing = nullptr) {
  std::deque<trace::TraceSource> replays;
  std::vector<trace::ObservableSource*> sources;
  for (const std::string& path : paths) {
    replays.emplace_back(path, tc);
    sources.push_back(&replays.back());
  }
  const MuMimoSimResult r = simulate_mu_mimo(sources, cfg);
  if (missing)
    for (const auto& replay : replays) *missing += replay.counters().missing;
  return r;
}

TEST(SuBeamformingTraceTest, StrictReplayIsBitwise) {
  const std::string path = tmp("bf_su_replay.mwtr");
  BeamformingSimConfig cfg;
  cfg.duration_s = 3.0;
  cfg.adaptive_period = true;  // sounding times depend on the classifier
  SuBeamformingResult live_r;
  {
    Rng rng(14);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, s.channel->config()));
    trace::RecordingSource rec(live, writer);
    live_r = simulate_su_beamforming(rec, cfg);
    writer.close();
  }
  trace::TraceSource replay(path);  // strict: any skew would throw
  const SuBeamformingResult replay_r = simulate_su_beamforming(replay, cfg);
  EXPECT_EQ(live_r.throughput_mbps, replay_r.throughput_mbps);
  EXPECT_EQ(live_r.mean_gain_db, replay_r.mean_gain_db);
  EXPECT_EQ(live_r.overhead_fraction, replay_r.overhead_fraction);
  EXPECT_GT(live_r.throughput_mbps, 1.0);
  std::remove(path.c_str());
}

TEST(MuMimoTraceTest, TraceReplayMatchesLiveShape) {
  // Record each client's reads during a live run, then run the emulator
  // purely from the traces: strict replay reproduces the live result.
  Rng rng(20);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario c = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg;
  cfg.duration_s = 3.0;
  cfg.adaptive_period = true;
  const std::vector<std::string> paths = {
      tmp("bf_mu_a.mwtr"), tmp("bf_mu_b.mwtr"), tmp("bf_mu_c.mwtr")};

  const auto live_r = record_mu_mimo({&a, &b, &c}, paths, cfg);
  const auto replay_r = replay_mu_mimo(paths, cfg, {});
  ASSERT_EQ(replay_r.per_client_mbps.size(), 3u);
  EXPECT_EQ(live_r.per_client_mbps, replay_r.per_client_mbps);
  EXPECT_EQ(live_r.total_mbps, replay_r.total_mbps);
  for (double mbps : replay_r.per_client_mbps) EXPECT_GT(mbps, 0.5);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(MuMimoTraceTest, StalePeriodHurtsMobileClientInReplay) {
  // Record once with a sounding at every slot; replay other feedback
  // periods from that one recording. A longer period only skips recorded
  // soundings, so no query goes unanswered.
  Rng rng(21);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMacro, rng, opt);
  const std::vector<std::string> paths = {tmp("bf_stale_a.mwtr"),
                                          tmp("bf_stale_b.mwtr")};
  BeamformingSimConfig every_slot = short_config();
  every_slot.fixed_period_s = 0.0;
  (void)record_mu_mimo({&a, &b}, paths, every_slot);

  trace::TraceSource::Config relaxed;
  relaxed.strict = false;
  auto run = [&](double period) {
    BeamformingSimConfig cfg = short_config();
    cfg.fixed_period_s = period;
    std::uint64_t missing = 0;
    const auto r = replay_mu_mimo(paths, cfg, relaxed, &missing);
    EXPECT_EQ(missing, 0u) << "period " << period;
    return r;
  };
  const auto fast = run(5e-3);
  const auto slow = run(100e-3);
  EXPECT_LT(slow.per_client_mbps[1], fast.per_client_mbps[1]);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(MuMimoTraceTest, AdaptivePeriodFromTraceClassifier) {
  // The classifier runs on the recorded CSI/ToF and picks per-client
  // periods; every sounding it asks for is in the every-slot recording.
  Rng rng(22);
  const auto opt = single_antenna_options();
  Scenario a = make_scenario(MobilityClass::kStatic, rng, opt);
  Scenario b = make_scenario(MobilityClass::kMacro, rng, opt);
  const std::vector<std::string> paths = {tmp("bf_adapt_a.mwtr"),
                                          tmp("bf_adapt_b.mwtr")};
  BeamformingSimConfig cfg = short_config();
  cfg.fixed_period_s = 0.0;
  (void)record_mu_mimo({&a, &b}, paths, cfg);

  cfg.adaptive_period = true;
  cfg.fixed_period_s = 20e-3;
  trace::TraceSource::Config relaxed;
  relaxed.strict = false;
  std::uint64_t missing = 0;
  const auto r = replay_mu_mimo(paths, cfg, relaxed, &missing);
  EXPECT_EQ(missing, 0u);
  EXPECT_GT(r.total_mbps, 1.0);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(MuMimoTraceTest, EmptyClientListSafe) {
  const auto r =
      simulate_mu_mimo(std::vector<trace::ObservableSource*>{}, short_config());
  EXPECT_TRUE(r.per_client_mbps.empty());
  EXPECT_DOUBLE_EQ(r.total_mbps, 0.0);
}

TEST(MuMimoTraceTest, RequireRefusesTraceWithoutTrueCsi) {
  // A valid trace carrying every stream but the emulator's ground-truth CSI
  // is refused up front instead of replaying silent absence.
  using trace::StreamKind;
  const std::string path = tmp("bf_no_true_csi.mwtr");
  {
    trace::TraceHeader h;
    h.stream_mask =
        trace::stream_bit(StreamKind::kCsi) |
        trace::stream_bit(StreamKind::kCsiFeedback) |
        trace::stream_bit(StreamKind::kTof) | trace::stream_bit(StreamKind::kSnr);
    h.n_tx = 3;
    h.n_rx = 1;
    h.n_sc = 52;
    trace::TraceWriter writer(path, h);
    writer.put_scalar(StreamKind::kSnr, 0, 0.0, 20.0);
    writer.close();
  }
  auto refusal = [](auto&& run) {
    try {
      run();
    } catch (const trace::TraceError& e) {
      return e.code();
    }
    ADD_FAILURE() << "ran without the kTrueCsi stream";
    return trace::TraceError::Code::kOpenFailed;
  };
  trace::TraceSource su(path);
  EXPECT_EQ(refusal([&] { (void)simulate_su_beamforming(su, short_config()); }),
            trace::TraceError::Code::kMissingStream);
  trace::TraceSource mu(path);
  const std::vector<trace::ObservableSource*> clients = {&mu};
  EXPECT_EQ(refusal([&] { (void)simulate_mu_mimo(clients, short_config()); }),
            trace::TraceError::Code::kMissingStream);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mobiwlan
