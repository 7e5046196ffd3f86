#include "phy/beamforming.hpp"

#include <cmath>
#include <stdexcept>

#include "util/matrix.hpp"
#include "util/units.hpp"

namespace mobiwlan {

namespace {

/// Channel row vector h for one (subcarrier, rx chain): h[i] = gain from TX
/// antenna i. Reception model: y = h^T x, so MRT weights are conj(h)/||h||.
std::vector<cplx> tx_vector(const CsiMatrix& csi, std::size_t sc, std::size_t rx) {
  std::vector<cplx> h(csi.n_tx());
  for (std::size_t tx = 0; tx < csi.n_tx(); ++tx) h[tx] = csi.at(tx, rx, sc);
  return h;
}

/// ||h|| of one (subcarrier, rx chain) row, read in place: the same sum in
/// the same order as vector_norm(tx_vector(csi, sc, rx)).
double tx_norm(const CsiMatrix& csi, std::size_t sc, std::size_t rx) {
  double sum = 0.0;
  for (std::size_t tx = 0; tx < csi.n_tx(); ++tx) sum += std::norm(csi.at(tx, rx, sc));
  return std::sqrt(sum);
}

}  // namespace

double su_beamforming_gain_db(const CsiMatrix& current, const CsiMatrix& feedback) {
  if (current.n_tx() != feedback.n_tx() || current.n_rx() != feedback.n_rx() ||
      current.n_subcarriers() != feedback.n_subcarriers())
    throw std::invalid_argument("CSI dimension mismatch in su_beamforming_gain_db");

  double gain_sum = 0.0;
  std::size_t count = 0;
  const double n_tx = static_cast<double>(current.n_tx());
  for (std::size_t sc = 0; sc < current.n_subcarriers(); ++sc) {
    for (std::size_t rx = 0; rx < current.n_rx(); ++rx) {
      const double wn = tx_norm(feedback, sc, rx);
      if (wn == 0.0) continue;
      cplx dot{};  // h^T w with MRT weights w = conj(feedback) / ||feedback||
      for (std::size_t tx = 0; tx < current.n_tx(); ++tx)
        dot += current.at(tx, rx, sc) * (std::conj(feedback.at(tx, rx, sc)) / wn);
      const double realized = std::norm(dot);
      const double h_norm = tx_norm(current, sc, rx);
      const double h_pow = h_norm * h_norm;
      if (h_pow == 0.0) continue;
      // Reference: the average single-antenna power h_pow / n_tx.
      gain_sum += realized / (h_pow / n_tx);
      ++count;
    }
  }
  if (count == 0) return 0.0;
  return linear_to_db(gain_sum / static_cast<double>(count));
}

MuMimoResult mu_mimo_zero_forcing(const std::vector<CsiMatrix>& current,
                                  const std::vector<CsiMatrix>& feedback,
                                  const std::vector<double>& snr0_db) {
  const std::size_t k_clients = current.size();
  if (feedback.size() != k_clients || snr0_db.size() != k_clients)
    throw std::invalid_argument("client count mismatch in mu_mimo_zero_forcing");
  if (k_clients == 0) return {};
  const std::size_t n_tx = current.front().n_tx();
  const std::size_t n_sc = current.front().n_subcarriers();
  if (k_clients > n_tx)
    throw std::invalid_argument("more clients than AP antennas");
  // The precoder and SINR read receive chain 0 only, so every client must
  // be a single-antenna n_tx x 1 x n_sc matrix of one common shape.
  for (const auto* set : {&current, &feedback})
    for (const CsiMatrix& h : *set) {
      if (h.n_rx() != 1)
        throw std::invalid_argument(
            "mu_mimo_zero_forcing needs single-antenna clients (n_rx = 1)");
      if (h.n_tx() != n_tx || h.n_subcarriers() != n_sc)
        throw std::invalid_argument(
            "CSI shape mismatch across clients in mu_mimo_zero_forcing");
    }

  // Per-client noise power, anchored so that the client's band-average
  // single-antenna SNR (no precoding) equals snr0_db[k].
  std::vector<double> noise(k_clients);
  for (std::size_t k = 0; k < k_clients; ++k) {
    const double mean_pow = current[k].mean_power();  // avg |h|^2 per antenna
    noise[k] = mean_pow / db_to_linear(snr0_db[k]);
  }

  // Accumulate per-client capacity across subcarriers, then invert to an
  // effective SINR (same mapping as effective_snr_db).
  std::vector<double> cap_sum(k_clients, 0.0);
  const double power_share = 1.0 / static_cast<double>(k_clients);

  for (std::size_t sc = 0; sc < n_sc; ++sc) {
    // Stale channel matrix (rows = clients) drives the precoder.
    CMatrix h_stale(k_clients, n_tx);
    for (std::size_t k = 0; k < k_clients; ++k) {
      const auto row = tx_vector(feedback[k], sc, 0);
      for (std::size_t i = 0; i < n_tx; ++i) h_stale(k, i) = row[i];
    }
    CMatrix w(n_tx, k_clients);
    try {
      w = h_stale.pseudo_inverse();
    } catch (const std::domain_error&) {
      // Degenerate (rank-deficient) stale channel: fall back to matched
      // filtering, which never throws.
      w = h_stale.hermitian();
    }
    // Unit-norm columns with equal power split.
    for (std::size_t k = 0; k < k_clients; ++k) {
      double norm = 0.0;
      for (std::size_t i = 0; i < n_tx; ++i) norm += std::norm(w(i, k));
      norm = std::sqrt(norm);
      if (norm == 0.0) continue;
      for (std::size_t i = 0; i < n_tx; ++i) w(i, k) /= norm;
    }

    for (std::size_t k = 0; k < k_clients; ++k) {
      const auto h_now = tx_vector(current[k], sc, 0);
      double signal = 0.0;
      double interference = 0.0;
      for (std::size_t j = 0; j < k_clients; ++j) {
        cplx rx{};
        for (std::size_t i = 0; i < n_tx; ++i) rx += h_now[i] * w(i, j);
        const double p = power_share * std::norm(rx);
        if (j == k)
          signal = p;
        else
          interference += p;
      }
      const double sinr = signal / (interference + noise[k]);
      cap_sum[k] += std::log2(1.0 + sinr);
    }
  }

  MuMimoResult result;
  result.sinr_db.resize(k_clients);
  for (std::size_t k = 0; k < k_clients; ++k) {
    const double mean_cap = cap_sum[k] / static_cast<double>(n_sc);
    result.sinr_db[k] = linear_to_db(std::pow(2.0, mean_cap) - 1.0);
  }
  return result;
}

}  // namespace mobiwlan
