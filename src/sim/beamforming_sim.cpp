#include "sim/beamforming_sim.hpp"

#include <algorithm>
#include <string>

#include "core/policy.hpp"
#include "phy/beamforming.hpp"
#include "phy/mcs.hpp"
#include "util/stats.hpp"

namespace mobiwlan {

namespace {

using trace::StreamKind;

/// Emulator-side observables (ground-truth CSI, SNR) model the medium
/// itself, not a lossy firmware export: a source that cannot serve one
/// cannot drive these loops.
[[noreturn]] void missing_ground_truth(const char* what) {
  throw trace::TraceError(trace::TraceError::Code::kMissingStream,
                          std::string("beamforming sim: ground-truth "
                                      "observable unavailable from source: ") +
                              what);
}

void require_streams(const trace::ObservableSource& src, const char* consumer) {
  src.require({StreamKind::kCsi, StreamKind::kCsiFeedback, StreamKind::kTrueCsi,
               StreamKind::kTof, StreamKind::kSnr},
              consumer);
}

/// Reads the slot's ground truth (true CSI, then SNR) into `h`; returns SNR.
double ground_truth(trace::ObservableSource& src, double t, CsiMatrix& h) {
  if (!src.csi_true(0, t, h)) missing_ground_truth("true CSI");
  const std::optional<double> snr = src.snr_db(0, t);
  if (!snr) missing_ground_truth("snr");
  return *snr;
}

/// The Table-2 feedback-period row a loop adapts along.
using PeriodRow = double ProtocolParams::*;

/// Tracks one client's feedback loop: classifier, period choice, sounding.
class FeedbackLoop {
 public:
  FeedbackLoop(trace::ObservableSource& src, const BeamformingSimConfig& config,
               PeriodRow row)
      : src_(src), config_(config), row_(row), classifier_(config.classifier) {}

  /// Advance measurement processes to time t; sound into `feedback` when the
  /// feedback period elapses. Returns true if a feedback exchange happened
  /// in this call (its airtime is charged by the caller, whether or not a
  /// replayed trace can serve the report).
  bool advance(double t, CsiMatrix& feedback) {
    // A reading the source cannot serve never reaches the classifier; its
    // hold-then-decay covers the gap.
    while (next_csi_t_ <= t) {
      if (src_.csi(0, next_csi_t_, csi_))
        classifier_.on_csi(next_csi_t_, csi_);
      next_csi_t_ += config_.classifier.csi_period_s;
    }
    while (next_tof_t_ <= t) {
      if (const auto tof = src_.tof_cycles(0, next_tof_t_))
        classifier_.on_tof(next_tof_t_, *tof);
      next_tof_t_ += config_.classifier.tof_period_s;
    }
    if (have_feedback_ && t - last_feedback_t_ < period()) return false;
    if (src_.csi_feedback(0, t, feedback)) have_feedback_ = true;
    last_feedback_t_ = t;
    return true;
  }

  /// Current feedback period.
  double period() const {
    if (!config_.adaptive_period || !classifier_.similarity())
      return config_.fixed_period_s;
    return mobility_params(classifier_.mode()).*row_;
  }

  bool ready() const { return have_feedback_; }

 private:
  trace::ObservableSource& src_;
  const BeamformingSimConfig& config_;
  PeriodRow row_;
  MobilityClassifier classifier_;
  CsiMatrix csi_;
  bool have_feedback_ = false;
  double last_feedback_t_ = 0.0;
  double next_csi_t_ = 0.0;
  double next_tof_t_ = 0.0;
};

double rate_at_snr(double snr_db, const BeamformingSimConfig& config,
                   int max_streams) {
  const int best = best_mcs(snr_db, config.mpdu_payload_bytes, max_streams,
                            config.error_model);
  return expected_throughput_mbps(mcs(best), snr_db, config.mpdu_payload_bytes,
                                  config.error_model) *
         config.mac_efficiency;
}

}  // namespace

SuBeamformingResult simulate_su_beamforming(trace::ObservableSource& src,
                                            const BeamformingSimConfig& config) {
  require_streams(src, "SU beamforming sim");
  FeedbackLoop loop(src, config, &ProtocolParams::bf_update_period_s);
  const double fb_airtime = feedback_exchange_airtime_s(config.feedback);

  OnlineStats gain_stats;
  double delivered_mbit = 0.0;
  double feedback_time = 0.0;
  CsiMatrix feedback, now;

  for (double t = 0.0; t < config.duration_s; t += config.slot_s) {
    if (loop.advance(t, feedback)) feedback_time += fb_airtime;
    if (!loop.ready()) continue;

    const double snr0 = ground_truth(src, t, now);
    const double gain_db = su_beamforming_gain_db(now, feedback);
    gain_stats.add(gain_db);

    const double snr = effective_snr_db(now, snr0) + gain_db;
    // Beamforming precodes a single stream across the AP antennas.
    delivered_mbit += rate_at_snr(snr, config, 1) * config.slot_s;
  }

  SuBeamformingResult result;
  result.overhead_fraction =
      std::min(1.0, feedback_time / config.duration_s);
  result.throughput_mbps =
      delivered_mbit / config.duration_s * (1.0 - result.overhead_fraction);
  result.mean_gain_db = gain_stats.mean();
  return result;
}

SuBeamformingResult simulate_su_beamforming(Scenario& scenario,
                                            const BeamformingSimConfig& config) {
  trace::LiveChannelSource live(*scenario.channel);
  return simulate_su_beamforming(live, config);
}

MuMimoSimResult simulate_mu_mimo(
    std::span<trace::ObservableSource* const> clients,
    const BeamformingSimConfig& config) {
  const std::size_t k = clients.size();
  std::vector<FeedbackLoop> loops;
  loops.reserve(k);
  for (trace::ObservableSource* src : clients) {
    require_streams(*src, "MU-MIMO sim");
    loops.emplace_back(*src, config, &ProtocolParams::mumimo_update_period_s);
  }

  const double fb_airtime = feedback_exchange_airtime_s(config.feedback);
  std::vector<double> delivered_mbit(k, 0.0);
  double feedback_time = 0.0;
  std::vector<CsiMatrix> current(k);
  std::vector<CsiMatrix> stale(k);
  std::vector<double> snr0(k);

  for (double t = 0.0; t < config.duration_s; t += config.slot_s) {
    bool all_ready = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (loops[i].advance(t, stale[i])) feedback_time += fb_airtime;
      all_ready = all_ready && loops[i].ready();
    }
    if (!all_ready) continue;

    for (std::size_t i = 0; i < k; ++i)
      snr0[i] = ground_truth(*clients[i], t, current[i]);

    const MuMimoResult zf = mu_mimo_zero_forcing(current, stale, snr0);
    for (std::size_t i = 0; i < k; ++i)
      delivered_mbit[i] += rate_at_snr(zf.sinr_db[i], config, 1) * config.slot_s;
  }

  MuMimoSimResult result;
  const double overhead = std::min(1.0, feedback_time / config.duration_s);
  result.per_client_mbps.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    result.per_client_mbps[i] =
        delivered_mbit[i] / config.duration_s * (1.0 - overhead);
    result.total_mbps += result.per_client_mbps[i];
  }
  return result;
}

MuMimoSimResult simulate_mu_mimo(const std::vector<Scenario*>& clients,
                                 const BeamformingSimConfig& config) {
  std::vector<trace::LiveChannelSource> live;
  live.reserve(clients.size());
  std::vector<trace::ObservableSource*> sources;
  sources.reserve(clients.size());
  for (Scenario* c : clients) sources.push_back(&live.emplace_back(*c->channel));
  return simulate_mu_mimo(sources, config);
}

}  // namespace mobiwlan
