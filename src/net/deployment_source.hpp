// deployment_source.hpp — the live multi-AP ObservableSource.
//
// Wraps a WlanDeployment as a trace::ObservableSource (unit = AP index) so
// the roaming and end-to-end loops run source-driven. Per-unit reads go
// through the AP's channel on one retained scratch (allocation-free in
// steady state); the scan/sweep overrides keep the batched passes the
// deployment already provides, with the same draws as per-unit reads.
#pragma once

#include "net/deployment.hpp"
#include "trace/source.hpp"

namespace mobiwlan {

class LiveDeploymentSource : public trace::ObservableSource {
 public:
  explicit LiveDeploymentSource(WlanDeployment& wlan)
      : wlan_(wlan), sweep_(wlan.n_aps()) {}

  std::size_t n_units() const override { return wlan_.n_aps(); }
  bool has(trace::StreamKind) const override { return true; }

  bool csi(std::uint32_t unit, double t, CsiMatrix& out) override;
  bool csi_feedback(std::uint32_t unit, double t, CsiMatrix& out) override {
    return csi(unit, t, out);
  }
  bool csi_true(std::uint32_t unit, double t, CsiMatrix& out) override;
  std::optional<double> rssi_dbm(std::uint32_t unit, double t) override {
    return wlan_.channel(unit).rssi_dbm(t, scratch_);
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t unit, double t) override {
    return rssi_dbm(unit, t);
  }
  std::optional<double> tof_cycles(std::uint32_t unit, double t) override {
    return wlan_.channel(unit).tof_cycles(t);
  }
  std::optional<double> snr_db(std::uint32_t unit, double t) override {
    return wlan_.channel(unit).snr_db(t, scratch_);
  }
  std::optional<double> true_distance(std::uint32_t unit, double t) override {
    return wlan_.channel(unit).true_distance(t);
  }

  /// Controller neighbor sweep: one batched pass (same per-link draw order
  /// as per-unit tof_cycles calls).
  void tof_sweep(double t, std::optional<double>* out) override;

  /// Batched scan, first-wins argmax — same draws as per-unit scan reads.
  std::optional<std::size_t> strongest_unit(double t) override {
    return wlan_.strongest_ap(t);
  }

  WlanDeployment& deployment() { return wlan_; }

 private:
  WlanDeployment& wlan_;
  std::vector<double> sweep_;
  ChannelBatch::Scratch scratch_;
};

}  // namespace mobiwlan
