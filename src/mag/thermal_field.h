// Stochastic thermal field (Brown 1963), the finite-temperature extension of
// LLG used for the robustness study of Sec. IV-D.
//
// Each magnetic cell receives an independent Gaussian field with
//   sigma_H = sqrt( 2 alpha k_B T / (mu0 gamma Ms V_cell dt) )   [A/m]
// per component, held constant across all stages of one integrator step
// (the two of Heun, the four of RK4) and redrawn via advance_step(). This
// is the standard fixed-step discretization of the thermal torque (MuMax3
// uses the same expression).
//
// The noise is drawn per magnetic cell in ascending grid order — the kernel
// path's slot order — straight into a slot-indexed SoaVec, so the scalar
// accumulate() and the lowered kThermal op add the same bytes from the
// same draws.
#pragma once

#include "mag/field_term.h"
#include "mag/kernels/soa.h"
#include "math/rng.h"

namespace swsim::mag {

class ThermalField final : public FieldTerm {
 public:
  // temperature in kelvin; seed fixes the noise realization.
  ThermalField(double temperature, std::uint64_t seed = 42);

  std::string name() const override { return "thermal"; }
  void accumulate(const System& sys, const VectorField& m, double t,
                  VectorField& h) override;
  void advance_step(double dt) override;
  // Restores the RNG, the step and the drawn noise.
  std::function<void()> checkpoint() override;
  bool compile_kernel(const System& sys, kernels::TermOp& op) const override;

  double temperature() const { return temperature_; }

  // Standard deviation of each field component [A/m] for the given system
  // and step size. Exposed for tests (fluctuation magnitude scaling).
  double sigma(const System& sys, double dt) const;

  // The current step's unit-variance noise, one (x, y, z) triple per
  // magnetic cell in slot order, drawn on the first call after
  // advance_step(); `scale` receives this step's sigma. nullptr while the
  // term adds nothing (T = 0, or before the first step).
  const kernels::SoaVec* noise(const System& sys, double& scale) const;

 private:
  double temperature_;
  double dt_ = 0.0;  // set by advance_step; 0 means "no step taken yet"
  // Lazily materialized per step: whichever path evaluates the field
  // first draws it, in the same order.
  mutable swsim::math::Pcg32 rng_;
  mutable kernels::SoaVec noise_;
  mutable bool noise_ready_ = false;
};

}  // namespace swsim::mag
