// Linear stability bound of the fixed-step LLG steppers.
//
// Linearized about the film's uniaxial ground state, a cell precesses at
//   omega_i = gamma mu0 H_i,
//   H_i = (2 Aex / mu0 Ms) * sum_axes 4 / d^2        exchange band edge
//       + |sum of z-uniaxial coefficients|            +H_k, -Ms_i (demag)
//       + |H_applied| + drive amplitude on the cell
// (the exchange term is the Gershgorin bound of the discrete Laplacian;
// uniaxial terms along z combine with their signs into the internal field
// H_k - Ms, other axes add in magnitude; a term without a kernel form —
// the non-local Newell demag — is bounded as |H_d| <= Ms_i; thermal noise
// drives the system but does not stiffen it). The LLG eigenvalue of that
// mode is omega_i (-alpha_i +- i) / (1 + alpha_i^2), at most omega_i in
// magnitude, so
//   RK4:  dt <= 2 sqrt(2) / omega_max — the imaginary-axis reach of its
//         stability region, inside the region for every alpha in [0, 1];
//   Heun: dt <= min_i 2 alpha_i^(1/3) / omega_i — on the imaginary axis
//         Heun amplifies by sqrt(1 + (omega dt)^4 / 4) per step, which only
//         the Gilbert damping alpha omega dt can cancel; the closed form is
//         that balance's small-alpha limit and lies inside the exact region
//         for every alpha in [0, 1].
// RKF45 controls its own step and has no fixed-step bound.
//
// At the default 4 nm FeCoB gate cells omega_max = 2.98e12 rad/s: RK4 is
// bounded at 0.948 ps and Heun at 0.106 ps (0.2385 / 0.0268 ps at 2 nm,
// 0.0597 / 0.0067 ps at 1 nm). docs/PHYSICS.md §1.3 has the table.
#pragma once

#include <memory>
#include <vector>

#include "mag/field_term.h"
#include "mag/llg.h"
#include "mag/system.h"
#include "robust/status.h"

namespace swsim::mag {

struct StabilityBound {
  double omega_max = 0.0;  // largest local precession rate [rad/s]
  double heun_dt = 0.0;    // largest stable Heun step [s]
  double rk4_dt = 0.0;     // largest stable RK4 step [s]

  // The fixed step bound of `kind`; +infinity for the adaptive RKF45.
  double dt_max(StepperKind kind) const;
};

StabilityBound stability_bound(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

// The share of a fixed step's stability bound that bounded_step takes:
// margin for the bound's linearization. The 4 nm gate's 0.5 ps default
// stays inside it (0.6 x 0.948 ps = 0.569 ps).
constexpr double kStabilityFraction = 0.6;

// min(ceiling, kStabilityFraction x the `kind` bound of this system and
// term set): the step a solve takes when it asks for at most `ceiling`,
// so a finer mesh takes proportionally finer steps by itself. RKF45 has
// no fixed bound and gets `ceiling`.
double bounded_step(const System& sys,
                    const std::vector<std::unique_ptr<FieldTerm>>& terms,
                    StepperKind kind, double ceiling);

// kInvalidConfig naming the stepper, dt, its bound and omega_max when a
// fixed step exceeds the bound; ok otherwise. The status is deterministic
// in its inputs, so it is never retryable.
robust::Status check_step(const StabilityBound& bound, StepperKind kind,
                          double dt);

}  // namespace swsim::mag
