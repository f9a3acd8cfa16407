#include "mag/stability.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "mag/kernels/term_op.h"
#include "math/constants.h"

namespace swsim::mag {

using swsim::math::kGamma;
using swsim::math::kMu0;

namespace {

const char* stepper_name(StepperKind kind) {
  switch (kind) {
    case StepperKind::kHeun:
      return "Heun";
    case StepperKind::kRk4:
      return "RK4";
    case StepperKind::kRkf45:
      return "RKF45";
  }
  return "?";
}

}  // namespace

double StabilityBound::dt_max(StepperKind kind) const {
  switch (kind) {
    case StepperKind::kHeun:
      return heun_dt;
    case StepperKind::kRk4:
      return rk4_dt;
    case StepperKind::kRkf45:
      break;
  }
  return std::numeric_limits<double>::infinity();
}

StabilityBound stability_bound(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms) {
  const auto& g = sys.grid();
  const auto& mask = sys.mask();
  // Every term is read through its kernel lowering: the TermOp carries
  // exactly the constants its field is built from.
  double shared = 0.0;  // exchange, applied and off-axis fields [A/m]
  double axial = 0.0;   // signed z-uniaxial coefficient of the anisotropy
  int film_demag = 0;   // thin-film demag terms: -Ms_i along z each
  int dipolar = 0;      // terms with no kernel form: |H| <= Ms_i each
  ScalarField drive(g, 0.0);
  for (const auto& term : terms) {
    kernels::TermOp op;
    if (!term->compile_kernel(sys, op)) {
      ++dipolar;
      continue;
    }
    switch (op.kind) {
      case kernels::OpKind::kExchange: {
        double lap = 0.0;
        if (g.nx() > 1) lap += 4.0 / (g.dx() * g.dx());
        if (g.ny() > 1) lap += 4.0 / (g.dy() * g.dy());
        if (g.nz() > 1) lap += 4.0 / (g.dz() * g.dz());
        shared += std::fabs(op.pref) * lap;
        break;
      }
      case kernels::OpKind::kAnisotropy:
        if (op.ax == 0.0 && op.ay == 0.0) {
          axial += op.pref;
        } else {
          shared += std::fabs(op.pref);
        }
        break;
      case kernels::OpKind::kThinFilmDemag:
        ++film_demag;
        break;
      case kernels::OpKind::kUniformZeeman:
        shared += std::sqrt(op.hx * op.hx + op.hy * op.hy + op.hz * op.hz);
        break;
      case kernels::OpKind::kAntenna:
        for (const std::uint32_t c : op.cells) {
          drive[c] += std::fabs(op.amplitude);
        }
        break;
      case kernels::OpKind::kThermal:
        break;
    }
  }

  StabilityBound b;
  b.heun_dt = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    const double ms = sys.ms_at(i);
    const double h = shared + std::fabs(axial - film_demag * ms) +
                     dipolar * ms + drive[i];
    const double omega = kGamma * kMu0 * h;
    if (!(omega > 0.0)) continue;
    b.omega_max = std::max(b.omega_max, omega);
    b.heun_dt = std::min(b.heun_dt, 2.0 * std::cbrt(sys.alpha_at(i)) / omega);
  }
  b.rk4_dt = b.omega_max > 0.0 ? 2.0 * std::sqrt(2.0) / b.omega_max
                               : std::numeric_limits<double>::infinity();
  return b;
}

double bounded_step(const System& sys,
                    const std::vector<std::unique_ptr<FieldTerm>>& terms,
                    StepperKind kind, double ceiling) {
  return std::min(ceiling,
                  kStabilityFraction * stability_bound(sys, terms).dt_max(kind));
}

robust::Status check_step(const StabilityBound& bound, StepperKind kind,
                          double dt) {
  const double limit = bound.dt_max(kind);
  if (dt <= limit) return robust::Status::ok();
  char msg[192];
  std::snprintf(msg, sizeof msg,
                "%s step dt = %.4g s exceeds its stability bound %.4g s "
                "(omega_max = %.4g rad/s)",
                stepper_name(kind), dt, limit, bound.omega_max);
  return robust::Status::error(robust::StatusCode::kInvalidConfig, msg);
}

}  // namespace swsim::mag
