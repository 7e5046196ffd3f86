#include "net/deployment_source.hpp"

namespace mobiwlan {

bool LiveDeploymentSource::csi(std::uint32_t unit, double t, CsiMatrix& out) {
  wlan_.channel(unit).csi_at_into(t, out, scratch_);
  return true;
}

bool LiveDeploymentSource::csi_true(std::uint32_t unit, double t,
                                    CsiMatrix& out) {
  wlan_.channel(unit).csi_true_into(t, out, scratch_);
  return true;
}

void LiveDeploymentSource::tof_sweep(double t, std::optional<double>* out) {
  wlan_.tof_sweep(t, sweep_.data());
  for (std::size_t ap = 0; ap < sweep_.size(); ++ap) out[ap] = sweep_[ap];
}

}  // namespace mobiwlan
