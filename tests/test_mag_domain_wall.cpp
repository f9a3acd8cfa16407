// Solver validation against textbook statics: the Bloch domain wall in a
// PMA strip relaxes to the analytic profile m_z(x) = tanh((x - x0)/Delta)
// with Delta = sqrt(A / K_eff) — a classic micromagnetic benchmark that
// exercises exchange + anisotropy + demag + the relaxation path together.
#include <gtest/gtest.h>

#include <cmath>

#include "mag/simulation.h"
#include "mag/stability.h"
#include "math/constants.h"
#include "math/stats.h"

namespace swsim::mag {
namespace {

using namespace swsim::math;

TEST(DomainWall, RelaxesToAnalyticWidth) {
  // 1D strip with a head-to-head wall seeded in the middle. The effective
  // anisotropy includes the thin-film demag: K_eff = Ku - mu0 Ms^2 / 2.
  Material mat = Material::fecob();
  const std::size_t n = 96;
  const double cell = nm(2);
  System sys(Grid(n, 1, 1, cell, cell, nm(1)), mat);
  Simulation sim(std::move(sys));
  sim.add_standard_terms();

  // Seed: sharp wall with a small transverse component to unlock the
  // dynamics.
  VectorField m(sim.system().grid());
  for (std::size_t x = 0; x < n; ++x) {
    const double mz = x < n / 2 ? -1.0 : 1.0;
    m[x] = normalized(Vec3{0.1, 0.0, mz});
  }
  sim.set_magnetization(m);
  // The 1-D 2 nm strip's RK4 bound lies far above relax's 0.1 ps ceiling.
  ASSERT_EQ(bounded_step(sim.system(), sim.terms(), StepperKind::kRk4,
                         ps(0.1)),
            ps(0.1));
  sim.relax(ns(4), /*torque_tol=*/50.0);

  // Fit the relaxed profile: Delta from the slope at the wall center,
  // dm_z/dx = 1/Delta at m_z = 0.
  const auto& mm = sim.magnetization();
  // Locate the zero crossing of m_z.
  std::size_t x0 = 0;
  for (std::size_t x = 0; x + 1 < n; ++x) {
    if (mm[x].z <= 0.0 && mm[x + 1].z > 0.0) {
      x0 = x;
      break;
    }
  }
  ASSERT_GT(x0, 10u);
  ASSERT_LT(x0, n - 10);
  const double slope =
      (mm[x0 + 1].z - mm[x0].z) / cell;  // ~ 1/Delta at the center

  const double k_eff = mat.ku - 0.5 * kMu0 * mat.ms * mat.ms;
  ASSERT_GT(k_eff, 0.0);
  const double delta_analytic = std::sqrt(mat.aex / k_eff);
  EXPECT_NEAR(1.0 / slope, delta_analytic, delta_analytic * 0.25);

  // And the far field is fully saturated.
  EXPECT_NEAR(mm[2].z, -1.0, 1e-3);
  EXPECT_NEAR(mm[n - 3].z, 1.0, 1e-3);
}

TEST(DomainWall, ProfileMatchesTanh) {
  Material mat = Material::fecob();
  const std::size_t n = 96;
  const double cell = nm(2);
  System sys(Grid(n, 1, 1, cell, cell, nm(1)), mat);
  Simulation sim(std::move(sys));
  sim.add_standard_terms();

  VectorField m(sim.system().grid());
  for (std::size_t x = 0; x < n; ++x) {
    m[x] = normalized(Vec3{0.1, 0.0, x < n / 2 ? -1.0 : 1.0});
  }
  sim.set_magnetization(m);
  sim.relax(ns(4), 50.0);

  // Locate center by interpolation, then compare m_z to tanh over +-4
  // wall widths.
  const auto& mm = sim.magnetization();
  double x_center = 0.0;
  for (std::size_t x = 0; x + 1 < n; ++x) {
    if (mm[x].z <= 0.0 && mm[x + 1].z > 0.0) {
      const double frac = -mm[x].z / (mm[x + 1].z - mm[x].z);
      x_center = (static_cast<double>(x) + 0.5 + frac) * cell;
      break;
    }
  }
  const double k_eff = mat.ku - 0.5 * kMu0 * mat.ms * mat.ms;
  const double delta = std::sqrt(mat.aex / k_eff);

  double worst = 0.0;
  for (std::size_t x = 8; x < n - 8; ++x) {
    const double pos = (static_cast<double>(x) + 0.5) * cell;
    const double analytic = std::tanh((pos - x_center) / delta);
    worst = std::max(worst, std::fabs(mm[x].z - analytic));
  }
  EXPECT_LT(worst, 0.08);
}

}  // namespace
}  // namespace swsim::mag
