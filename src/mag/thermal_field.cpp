#include "mag/thermal_field.h"

#include <cmath>
#include <stdexcept>

#include "mag/kernels/term_op.h"
#include "math/constants.h"

namespace swsim::mag {

using namespace swsim::math;

ThermalField::ThermalField(double temperature, std::uint64_t seed)
    : temperature_(temperature), rng_(seed) {
  if (temperature < 0.0) {
    throw std::invalid_argument("ThermalField: temperature must be >= 0");
  }
}

double ThermalField::sigma(const System& sys, double dt) const {
  if (!(dt > 0.0)) return 0.0;
  const Material& mat = sys.material();
  const double v = sys.grid().cell_volume();
  return std::sqrt(2.0 * mat.alpha * kBoltzmann * temperature_ /
                   (kMu0 * kGamma * mat.ms * v * dt));
}

const kernels::SoaVec* ThermalField::noise(const System& sys,
                                           double& scale) const {
  if (temperature_ == 0.0 || dt_ == 0.0) return nullptr;
  if (!noise_ready_ || noise_.size() != sys.magnetic_cell_count()) {
    const auto& mask = sys.mask();
    noise_.x.clear();
    noise_.y.clear();
    noise_.z.clear();
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) continue;
      noise_.x.push_back(rng_.normal());
      noise_.y.push_back(rng_.normal());
      noise_.z.push_back(rng_.normal());
    }
    noise_ready_ = true;
  }
  scale = sigma(sys, dt_);
  return &noise_;
}

void ThermalField::accumulate(const System& sys, const VectorField& m,
                              double /*t*/, VectorField& h) {
  double s = 0.0;
  const kernels::SoaVec* n = noise(sys, s);
  if (!n) return;
  const auto& mask = sys.mask();
  std::size_t slot = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!mask[i]) continue;
    h[i] += s * Vec3{n->x[slot], n->y[slot], n->z[slot]};
    ++slot;
  }
}

bool ThermalField::compile_kernel(const System&, kernels::TermOp& op) const {
  op.kind = kernels::OpKind::kThermal;  // h += sigma * noise[s]
  op.thermal = this;
  return true;
}

std::function<void()> ThermalField::checkpoint() {
  return [this, saved = *this] { *this = saved; };
}

void ThermalField::advance_step(double dt) {
  dt_ = dt;
  // Force a fresh noise draw at the next evaluation.
  noise_ready_ = false;
}

}  // namespace swsim::mag
