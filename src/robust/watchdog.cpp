#include "robust/watchdog.h"

#include <cmath>
#include <string>

namespace swsim::robust {

namespace {

bool finite3(const swsim::math::Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

bool cell_healthy(const swsim::math::Vec3& m, double norm_drift_tol) {
  if (!finite3(m)) return false;
  return !(norm_drift_tol > 0.0 &&
           std::fabs(norm(m) - 1.0) > norm_drift_tol);
}

Status cell_fault(const swsim::math::Vec3& m, std::size_t cell,
                  double norm_drift_tol) {
  if (!finite3(m)) {
    return Status::error(
        StatusCode::kNumericalDivergence,
        "non-finite magnetization at cell " + std::to_string(cell));
  }
  const double drift = std::fabs(norm(m) - 1.0);
  if (norm_drift_tol > 0.0 && drift > norm_drift_tol) {
    return Status::error(StatusCode::kNumericalDivergence,
                         "|m| drift " + std::to_string(drift) + " at cell " +
                             std::to_string(cell));
  }
  return Status::ok();
}

Status scan_magnetization(const swsim::math::VectorField& m,
                          const swsim::math::Mask& mask,
                          double norm_drift_tol) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (mask[i] && !cell_healthy(m[i], norm_drift_tol)) {
      return cell_fault(m[i], i, norm_drift_tol);
    }
  }
  return Status::ok();
}

void EnergyWatchdog::reset() {
  checks_ = 0;
  reference_ = 0.0;
}

Status EnergyWatchdog::check(double energy, double growth_factor,
                             std::size_t warmup_checks) {
  if (!std::isfinite(energy)) {
    return Status::error(StatusCode::kNumericalDivergence,
                         "total energy is non-finite");
  }
  const double magnitude = std::fabs(energy);
  ++checks_;
  // Warmup: ratchet the reference to the running max |E|. Also keep
  // ratcheting past warmup while the reference is physically negligible
  // (a zero-energy start with a late drive ramp): enforcing a growth
  // bound against numerical noise would flag the first healthy energy.
  if (checks_ <= warmup_checks || reference_ < kNegligibleEnergy) {
    reference_ = std::max(reference_, magnitude);
    return Status::ok();
  }
  if (growth_factor > 0.0 && magnitude > growth_factor * reference_) {
    return Status::error(StatusCode::kNumericalDivergence,
                         "total energy grew to " + std::to_string(energy) +
                             " J (reference magnitude " +
                             std::to_string(reference_) + " J)");
  }
  return Status::ok();
}

}  // namespace swsim::robust
