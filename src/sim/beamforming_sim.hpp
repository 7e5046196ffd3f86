// beamforming_sim.hpp — §6: SU beamforming and MU-MIMO under CSI staleness.
//
// Both emulators step a client's observables at a fine time step; at each
// step the AP precodes with the CSI it last received from the client, which
// refreshes only every feedback period. Each refresh also consumes airtime
// (sounding + report at the lowest rate), so short periods tax static clients
// while long periods starve mobile ones — the tension Fig. 11(a)/12(a) plots.
// The adaptive scheme picks the Table-2 period for each client's classified
// mobility mode.
//
// The loops read everything through trace::ObservableSource (unit 0 of each
// client's source): classifier CSI/ToF, the sounding (kCsiFeedback), and the
// emulator's ground truth (kTrueCsi, kSnr). The Scenario overloads wrap a
// LiveChannelSource per client. The paper's §6.2 trace-driven emulation ("we
// fed the series of CSI values to a MU-MIMO emulator") is a live run through
// a RecordingSource replayed from a TraceSource: strict replay reproduces the
// live result bit for bit, and a recording made with fixed_period_s = 0
// (a sounding at every slot) replays any other feedback period in relaxed
// mode.
#pragma once

#include <span>
#include <vector>

#include "chan/scenario.hpp"
#include "core/mobility_classifier.hpp"
#include "phy/csi_feedback.hpp"
#include "phy/error_model.hpp"
#include "trace/source.hpp"

namespace mobiwlan {

struct BeamformingSimConfig {
  double duration_s = 20.0;
  double slot_s = 2e-3;
  bool adaptive_period = false;   ///< Table-2 period per classified mode
  double fixed_period_s = 20e-3;  ///< stock statically-configured period
  int mpdu_payload_bytes = 1500;
  double mac_efficiency = 0.70;
  MobilityClassifier::Config classifier;
  ErrorModelConfig error_model;
  CsiFeedbackConfig feedback;
};

struct SuBeamformingResult {
  double throughput_mbps = 0.0;
  double mean_gain_db = 0.0;        ///< realized beamforming gain
  double overhead_fraction = 0.0;   ///< airtime share spent on feedback
};

/// Single-user transmit beamforming on one link (Fig. 11). Requires the
/// kCsi, kCsiFeedback, kTrueCsi, kTof and kSnr streams; an absent classifier
/// read is skipped, absent ground truth throws TraceError kMissingStream.
SuBeamformingResult simulate_su_beamforming(trace::ObservableSource& src,
                                            const BeamformingSimConfig& config);

/// Live run over the scenario's channel.
SuBeamformingResult simulate_su_beamforming(Scenario& scenario,
                                            const BeamformingSimConfig& config);

struct MuMimoSimResult {
  std::vector<double> per_client_mbps;
  double total_mbps = 0.0;
};

/// MU-MIMO downlink to `clients.size()` single-antenna clients (Fig. 12),
/// one source per client (unit 0). Each client's CSI must be n_tx x 1, and
/// the count must not exceed the AP antenna count. Stream requirements as
/// for simulate_su_beamforming. (A span, not a vector: a braced pair of
/// Scenario pointers would also match vector's iterator-pair constructor
/// and make the Scenario overload's two-client call ambiguous.)
MuMimoSimResult simulate_mu_mimo(
    std::span<trace::ObservableSource* const> clients,
    const BeamformingSimConfig& config);

/// Live run over each scenario's channel (configured with n_rx = 1).
MuMimoSimResult simulate_mu_mimo(const std::vector<Scenario*>& clients,
                                 const BeamformingSimConfig& config);

}  // namespace mobiwlan
