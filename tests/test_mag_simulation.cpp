#include "mag/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/exchange_field.h"
#include "mag/kernels/runtime.h"
#include "mag/stability.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "wavenet/dispersion.h"

namespace swsim::mag {
namespace {

using namespace swsim::math;

System small_system() {
  return System(Grid(4, 4, 1, 5e-9, 5e-9, 1e-9), Material::fecob());
}

TEST(Simulation, StartsAtTimeZeroWithUniformM) {
  Simulation sim(small_system());
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
  EXPECT_EQ(sim.magnetization()[0], (Vec3{0, 0, 1}));
}

TEST(Simulation, SetMagnetizationValidatesGrid) {
  Simulation sim(small_system());
  VectorField wrong(Grid(2, 2, 1, 1e-9, 1e-9, 1e-9));
  EXPECT_THROW(sim.set_magnetization(wrong), std::invalid_argument);
}

TEST(Simulation, SetMagnetizationNormalizes) {
  Simulation sim(small_system());
  VectorField m(sim.system().grid(), Vec3{0, 0, 3});
  sim.set_magnetization(m);
  EXPECT_NEAR(norm(sim.magnetization()[0]), 1.0, 1e-15);
}

TEST(Simulation, AddTermRejectsNull) {
  Simulation sim(small_system());
  EXPECT_THROW(sim.add_term(nullptr), std::invalid_argument);
}

TEST(Simulation, RunAdvancesTime) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(StepperKind::kRk4, ps(0.1));
  sim.run(ps(10));
  EXPECT_NEAR(sim.time(), ps(10), ps(0.2));
  EXPECT_GT(sim.stepper_stats().steps_taken, 0u);
}

TEST(Simulation, RunRejectsNegativeDuration) {
  Simulation sim(small_system());
  EXPECT_THROW(sim.run(-1.0), std::invalid_argument);
}

TEST(Simulation, ProbeRecordsSamples) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(StepperKind::kRk4, ps(0.1));
  Mask region(sim.system().grid(), true);
  auto& probe = sim.add_probe("all", region, ps(1));
  sim.run(ps(10));
  EXPECT_GE(probe.sample_count(), 10u);
  EXPECT_EQ(probe.times().size(), probe.mz().size());
  // Ground state along z: m_z stays ~1.
  for (double mz : probe.mz()) EXPECT_NEAR(mz, 1.0, 1e-6);
}

TEST(Simulation, ProbeLookupByName) {
  Simulation sim(small_system());
  Mask region(sim.system().grid(), true);
  sim.add_probe("foo", region, ps(1));
  EXPECT_NO_THROW(sim.probe("foo"));
  EXPECT_THROW(sim.probe("bar"), std::invalid_argument);
}

TEST(Simulation, ProbeRejectsEmptyRegion) {
  Simulation sim(small_system());
  Mask region(sim.system().grid());
  EXPECT_THROW(sim.add_probe("empty", region, ps(1)), std::invalid_argument);
}

TEST(Simulation, GroundStateIsStationary) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(StepperKind::kRk4, ps(0.1));
  sim.run(ps(50));
  // With PMA > demag, m = z is the ground state and must not move.
  for (std::size_t i = 0; i < sim.magnetization().size(); ++i) {
    EXPECT_NEAR(sim.magnetization()[i].z, 1.0, 1e-6);
  }
}

TEST(Simulation, MaxTorqueZeroInGroundState) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  EXPECT_NEAR(sim.max_torque(), 0.0, 1.0);
}

TEST(Simulation, RelaxReducesTorque) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  // Tilt the state.
  VectorField m(sim.system().grid(), normalized(Vec3{0.4, 0.1, 1.0}));
  sim.set_magnetization(m);
  const double before = sim.max_torque();
  const double after = sim.relax(ns(0.4), /*torque_tol=*/before / 100.0);
  EXPECT_LT(after, before / 10.0);
}

TEST(Simulation, RelaxStepsInsideTheStabilityBoundOnAFineMesh) {
  // At 1 nm cells a 0.1 ps RK4 step is 1.7x the stability bound: the
  // exchange band edge would grow every step. relax takes the bounded
  // step instead and brings a rough state down.
  Simulation sim(System(Grid(16, 16, 1, nm(1), nm(1), nm(1)),
                        Material::fecob()));
  sim.add_standard_terms();
  EXPECT_LT(bounded_step(sim.system(), sim.terms(), StepperKind::kRk4,
                         ps(0.1)),
            ps(0.1));
  VectorField m(sim.system().grid());
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double a = 0.37 * static_cast<double>(i);
    m[i] = normalized(Vec3{0.2 * std::sin(a), 0.2 * std::cos(1.7 * a), 1.0});
  }
  sim.set_magnetization(m);
  const double before = sim.max_torque();
  const double after = sim.relax(ns(0.05), /*torque_tol=*/before / 100.0);
  EXPECT_LT(after, before / 10.0);
}

TEST(Simulation, TotalEnergyDecreasesUnderDamping) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  VectorField m(sim.system().grid(), normalized(Vec3{0.5, 0, 1.0}));
  sim.set_magnetization(m);
  const double e0 = sim.total_energy();
  sim.set_stepper(StepperKind::kRk4, ps(0.05));
  sim.run(ns(0.5));
  const double e1 = sim.total_energy();
  EXPECT_LT(e1, e0);
}

TEST(Simulation, EnergyConservedWithoutDamping) {
  Material mat = Material::fecob();
  mat.alpha = 0.0;
  System sys(Grid(4, 4, 1, 5e-9, 5e-9, 1e-9), mat);
  Simulation sim(std::move(sys));
  sim.add_standard_terms();
  VectorField m(sim.system().grid(), normalized(Vec3{0.3, 0, 1.0}));
  sim.set_magnetization(m);
  const double e0 = sim.total_energy();
  sim.set_stepper(StepperKind::kRk4, ps(0.02));
  sim.run(ps(200));
  const double e1 = sim.total_energy();
  EXPECT_NEAR(e1, e0, std::fabs(e0) * 1e-4 + 1e-25);
}

TEST(Simulation, AntennaExcitesPrecession) {
  Simulation sim(small_system());
  sim.add_standard_terms();
  Mask region(sim.system().grid(), true);
  const wavenet::Dispersion disp(Material::fecob(), 1e-9);
  const double f = disp.frequency(0.0) * 1.001;  // near-resonant drive
  sim.add_term(std::make_unique<AntennaField>(region, 2e3, Vec3{1, 0, 0}, f,
                                              0.0));
  auto& probe = sim.add_probe("all", region, 1.0 / (32.0 * f));
  sim.set_stepper(StepperKind::kRk4, ps(0.2));
  sim.run(ns(0.8));
  // The drive must have produced a visible transverse oscillation.
  double max_mx = 0.0;
  for (double v : probe.mx()) max_mx = std::max(max_mx, std::fabs(v));
  EXPECT_GT(max_mx, 1e-4);
}

// --- stability bound --------------------------------------------------

// A FeCoB film strip at cell size `cell` with the standard terms and a
// 4 kA/m antenna over its first quarter: the gate's term set.
std::unique_ptr<Simulation> film_strip(double cell) {
  const Grid g(32, 6, 1, cell, cell, 1e-9);
  auto sim = std::make_unique<Simulation>(System(g, Material::fecob()));
  sim->add_standard_terms();
  Mask region(g, false);
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = 0; x < 8; ++x) region.set(g.index(x, y, 0), true);
  }
  sim->add_term(std::make_unique<AntennaField>(region, 4.0e3, Vec3{1, 0, 0},
                                               18e9, 0.0));
  return sim;
}

TEST(StabilityBound, MatchesTheFilmBandEdgeAtEachCellSize) {
  // omega_max = gamma mu0 (H_k - Ms + drive + (2A / mu0 Ms) 8 / d^2).
  const Material mat = Material::fecob();
  struct Row {
    double cell, rk4, heun;
  };
  for (const Row& r : {Row{4e-9, 0.9482e-12, 0.10643e-12},
                       Row{2e-9, 0.2385e-12, 0.02677e-12},
                       Row{1e-9, 0.0597e-12, 0.00670e-12}}) {
    SCOPED_TRACE("cell " + std::to_string(r.cell * 1e9) + " nm");
    const auto sim = film_strip(r.cell);
    const StabilityBound b = stability_bound(sim->system(), sim->terms());
    const double h = mat.anisotropy_field() - mat.ms + 4.0e3 +
                     2.0 * mat.aex / (kMu0 * mat.ms) * 8.0 / (r.cell * r.cell);
    EXPECT_NEAR(b.omega_max, kGamma * kMu0 * h, 1e-9 * b.omega_max);
    EXPECT_NEAR(b.rk4_dt, r.rk4, 1e-3 * r.rk4);
    EXPECT_NEAR(b.heun_dt, r.heun, 1e-3 * r.heun);
    EXPECT_EQ(b.dt_max(StepperKind::kRk4), b.rk4_dt);
    EXPECT_EQ(b.dt_max(StepperKind::kHeun), b.heun_dt);
    EXPECT_TRUE(std::isinf(b.dt_max(StepperKind::kRkf45)));
  }
}

// Restores the process-wide kernel mode however a test exits.
struct ReferenceMode {
  explicit ReferenceMode(int mode) { kernels::set_force_reference(mode); }
  ~ReferenceMode() { kernels::set_force_reference(-1); }
};

TEST(StabilityBound, RunRejectsAStepAboveTheBoundOnBothPaths) {
  // 2 nm cells: the old 0.25 ps gate step is 1.05x RK4's bound there.
  const auto probe = film_strip(2e-9);
  const StabilityBound b = stability_bound(probe->system(), probe->terms());
  for (const StepperKind kind : {StepperKind::kRk4, StepperKind::kHeun}) {
    const std::string stepper = kind == StepperKind::kRk4 ? "RK4" : "Heun";
    std::string messages[2];
    for (const int ref : {0, 1}) {
      SCOPED_TRACE(stepper + (ref ? " on the reference path" : " on kernels"));
      const ReferenceMode mode(ref);
      const double bound = b.dt_max(kind);
      {
        auto sim = film_strip(2e-9);
        sim->set_stepper(kind, 1.05 * bound);
        const robust::Status s = sim->run_guarded(20 * bound);
        ASSERT_EQ(s.code(), robust::StatusCode::kInvalidConfig) << s.str();
        EXPECT_FALSE(robust::is_retryable(s.code()));
        EXPECT_NE(s.message().find(stepper), std::string::npos) << s.message();
        EXPECT_NE(s.message().find("omega_max"), std::string::npos);
        EXPECT_EQ(sim->stepper_stats().steps_taken, 0u);
        EXPECT_EQ(sim->time(), 0.0);
        EXPECT_THROW(sim->run(20 * bound), robust::SolveError);
        messages[ref] = s.message();
      }
      {
        auto sim = film_strip(2e-9);
        sim->set_stepper(kind, 0.95 * bound);
        const robust::Status s = sim->run_guarded(20 * bound);
        EXPECT_TRUE(s.is_ok()) << s.str();
        EXPECT_GE(sim->stepper_stats().steps_taken, 20u);
      }
    }
    EXPECT_EQ(messages[0], messages[1]);
  }
}

}  // namespace
}  // namespace swsim::mag
