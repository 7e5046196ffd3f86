// beamforming.hpp — SU transmit beamforming and MU-MIMO zero-forcing.
//
// §6 of the paper: beamforming precodes packets using CSI fed back by the
// client; the feedback goes stale at a rate set by the client's mobility.
// This module computes the *realized* gain (SU) or per-client SINR (MU) when
// a precoder derived from stale CSI is applied to the channel that actually
// exists at transmit time — the quantity that decays as feedback ages.
#pragma once

#include <vector>

#include "phy/csi.hpp"

namespace mobiwlan {

/// Realized SU transmit-beamforming array gain (dB) when the AP beamforms
/// with weights computed from `feedback` CSI while the true channel is
/// `current`. Computed per subcarrier per receive chain with maximum-ratio
/// transmission weights, then averaged.
///
/// Fresh feedback -> 10*log10(n_tx) (4.8 dB with 3 antennas);
/// fully stale    -> 0 dB in expectation (a random beam).
double su_beamforming_gain_db(const CsiMatrix& current, const CsiMatrix& feedback);

/// Per-client result of a MU-MIMO transmission.
struct MuMimoResult {
  /// Post-precoding SINR (dB) per client, frequency-averaged via capacity.
  std::vector<double> sinr_db;
};

/// Zero-forcing MU-MIMO downlink to K single-antenna clients from an
/// n_tx-antenna AP (K <= n_tx).
///
/// `current[k]` / `feedback[k]` are client k's true and fed-back CSI
/// (n_tx x 1 x n_sc). The precoder is the column-normalized pseudo-inverse of
/// the stale channel matrix with equal per-client power split; each client's
/// noise floor is `noise_relative_db[k]` below... i.e. the single-antenna SNR
/// client k would see without precoding is `snr0_db[k]`.
///
/// Throws std::invalid_argument when the three lists differ in length, when
/// K > n_tx, or when any matrix has n_rx != 1 or an n_tx / n_subcarriers
/// that differs from `current.front()`.
MuMimoResult mu_mimo_zero_forcing(const std::vector<CsiMatrix>& current,
                                  const std::vector<CsiMatrix>& feedback,
                                  const std::vector<double>& snr0_db);

}  // namespace mobiwlan
