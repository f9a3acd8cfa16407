// Bit-exactness contract of the fused SoA kernel path.
//
// The kernel layer (src/mag/kernels/) promises byte-identical output to
// the scalar reference steppers for every stepper kind, every term set it
// lowers, and ANY intra-solve job count. These tests hold it to that with
// memcmp over the raw Vec3 bytes — no tolerances anywhere — on a masked
// (triangle-like) geometry that exercises interior SIMD runs, scalar edge
// cells, absent-neighbour self-slots, and the antenna gate at once. The
// KernelResident tests drive whole Simulation::run solves, whose state
// stays slot-indexed in the solve context between AoS write-backs.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/ovf.h"
#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/exchange_field.h"
#include "mag/kernels/plan.h"
#include "mag/kernels/runtime.h"
#include "mag/llg.h"
#include "mag/material.h"
#include "mag/simulation.h"
#include "mag/system.h"
#include "mag/thermal_field.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "math/field.h"
#include "obs/metrics.h"
#include "obs/physics.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"
#include "robust/status.h"

namespace swsim::mag {
namespace {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::Vec3;
using swsim::math::VectorField;

// Restores the process-wide kernel knobs no matter how a test exits.
struct KernelModeGuard {
  ~KernelModeGuard() {
    kernels::set_force_reference(-1);
    kernels::set_cell_jobs(1);
  }
};

Grid make_grid() { return Grid(24, 16, 1, 4e-9, 4e-9, 10e-9); }

// Right-triangle footprint: row y keeps x in [0, nx - y). Produces long
// interior runs low in the triangle, short (< kMinRun) rows near the apex
// that land whole on the edge path, and a diagonal boundary whose cells
// have absent +x/+y neighbours.
Mask triangle_mask(const Grid& g) {
  Mask mask(g, false);
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = 0; x < g.nx(); ++x) {
      if (x + y < g.nx()) mask.set(g.index(x, y, 0), true);
    }
  }
  return mask;
}

// The triangle moved off the grid origin: x >= 2, y >= 1. The first
// magnetic cell is grid index 26 but slot 0, so a message that names a
// cell tells the two apart.
Mask bordered_triangle_mask(const Grid& g) {
  Mask mask(g, false);
  for (std::size_t y = 1; y < g.ny(); ++y) {
    for (std::size_t x = 2; x < g.nx(); ++x) {
      if ((x - 2) + (y - 1) < g.nx() - 4) mask.set(g.index(x, y, 0), true);
    }
  }
  return mask;
}
constexpr std::size_t kBorderedFirstCell = 26;

// Antenna footprint: a column band, deliberately wider than the mask so
// region ∧ mask matters.
Mask antenna_region(const Grid& g) {
  Mask region(g, false);
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = 4; x < 8 && x < g.nx(); ++x) {
      region.set(g.index(x, y, 0), true);
    }
  }
  return region;
}

// Every kernel-lowerable term at once.
std::vector<std::unique_ptr<FieldTerm>> make_terms(const Grid& g) {
  std::vector<std::unique_ptr<FieldTerm>> terms;
  terms.push_back(std::make_unique<ExchangeField>());
  terms.push_back(std::make_unique<UniaxialAnisotropyField>(Vec3{0, 0, 1}));
  terms.push_back(std::make_unique<ThinFilmDemagField>());
  terms.push_back(std::make_unique<UniformZeemanField>(Vec3{0, 0, 2.0e4}));
  terms.push_back(std::make_unique<AntennaField>(antenna_region(g), 5.0e3,
                                                 Vec3{1, 0, 0}, 2.6e9, 0.3));
  return terms;
}

VectorField initial_m(const System& sys) {
  VectorField m(sys.grid());
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!mask[i]) continue;
    const double a = 0.37 * static_cast<double>(i);
    m[i] = swsim::math::normalized(
        Vec3{0.15 * std::sin(a), 0.15 * std::cos(1.7 * a), 1.0});
  }
  return m;
}

struct RunResult {
  VectorField m;
  StepperStats stats;
};

// Runs `steps` stepper calls under the given kernel mode and job count.
// ref_mode: 1 = scalar reference oracle, 0 = fused kernel path.
// temperature > 0 adds a seeded ThermalField after the other terms;
// extra_antennas adds that many antennas on overlapping column bands.
RunResult run_steps(StepperKind kind, int ref_mode, std::size_t cell_jobs,
                    std::size_t steps, double dt, double tolerance = 1e-5,
                    double temperature = 0.0,
                    std::size_t extra_antennas = 0) {
  KernelModeGuard guard;
  kernels::set_force_reference(ref_mode);
  kernels::set_cell_jobs(cell_jobs);

  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  auto terms = make_terms(g);
  if (temperature > 0.0) {
    terms.push_back(std::make_unique<ThermalField>(temperature, 5));
  }
  for (std::size_t a = 0; a < extra_antennas; ++a) {
    const std::size_t x0 = (3 * a) % (g.nx() - 2);
    Mask band(g, false);
    for (std::size_t y = 0; y < g.ny(); ++y) {
      for (std::size_t x = x0; x < x0 + 2; ++x) {
        band.set(g.index(x, y, 0), true);
      }
    }
    terms.push_back(std::make_unique<AntennaField>(
        band, 1.0e3 + 50.0 * static_cast<double>(a), Vec3{0, 1, 0},
        2.6e9 + 1.0e8 * static_cast<double>(a), 0.2 * static_cast<double>(a)));
  }
  VectorField m = initial_m(sys);

  Stepper stepper(kind, dt, tolerance);
  double t = 0.0;
  for (std::size_t s = 0; s < steps; ++s) t += stepper.step(sys, terms, m, t);
  return RunResult{std::move(m), stepper.stats()};
}

::testing::AssertionResult bytes_identical(const VectorField& a,
                                           const VectorField& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data().data(), b.data().data(),
                  a.size() * sizeof(Vec3)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Vec3)) != 0) {
      return ::testing::AssertionFailure()
             << "first byte difference at cell " << i << ": (" << a[i].x
             << ", " << a[i].y << ", " << a[i].z << ") vs (" << b[i].x << ", "
             << b[i].y << ", " << b[i].z << ")";
    }
  }
  return ::testing::AssertionFailure() << "padding bytes differ";
}

TEST(KernelBitExact, HeunMatchesReference) {
  const auto ref = run_steps(StepperKind::kHeun, 1, 1, 25, 2e-13);
  const auto fused = run_steps(StepperKind::kHeun, 0, 1, 25, 2e-13);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
  EXPECT_EQ(ref.stats.field_evaluations, fused.stats.field_evaluations);
}

TEST(KernelBitExact, Rk4MatchesReference) {
  const auto ref = run_steps(StepperKind::kRk4, 1, 1, 25, 2e-13);
  const auto fused = run_steps(StepperKind::kRk4, 0, 1, 25, 2e-13);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
  EXPECT_EQ(ref.stats.field_evaluations, fused.stats.field_evaluations);
}

TEST(KernelBitExact, ThermalMatchesReferenceAtAnyCellJobs) {
  // The lowered noise op draws the oracle's numbers in the oracle's order
  // and adds them at the same point of each cell's accumulation.
  for (const StepperKind kind : {StepperKind::kRk4, StepperKind::kHeun}) {
    SCOPED_TRACE(kind == StepperKind::kRk4 ? "RK4" : "Heun");
    const auto ref = run_steps(kind, 1, 1, 25, 2e-13, 1e-5, 300.0);
    for (const std::size_t jobs : {1u, 4u}) {
      const auto fused = run_steps(kind, 0, jobs, 25, 2e-13, 1e-5, 300.0);
      EXPECT_TRUE(bytes_identical(ref.m, fused.m)) << jobs << " cell jobs";
    }
    // The noise is live: the same solve at T = 0 ends elsewhere.
    const auto cold = run_steps(kind, 0, 1, 25, 2e-13);
    EXPECT_FALSE(bytes_identical(ref.m, cold.m));
  }
}

TEST(KernelBitExact, ManyAntennasMatchReferenceAtAnyCellJobs) {
  // Antennas past the run coverage bits (9, and 70 > 64: the later ones
  // carry no bit and select on their gate in every run) take the same
  // fused sweep as the rest.
  const auto single = run_steps(StepperKind::kRk4, 0, 1, 25, 2e-13);
  for (const std::size_t extra : {8u, 69u}) {
    SCOPED_TRACE(std::to_string(extra + 1) + " antennas");
    const auto ref =
        run_steps(StepperKind::kRk4, 1, 1, 25, 2e-13, 1e-5, 0.0, extra);
    for (const std::size_t jobs : {1u, 4u}) {
      const auto fused =
          run_steps(StepperKind::kRk4, 0, jobs, 25, 2e-13, 1e-5, 0.0, extra);
      EXPECT_TRUE(bytes_identical(ref.m, fused.m)) << jobs << " cell jobs";
    }
    // The extra drives are live: the one-antenna solve ends elsewhere.
    EXPECT_FALSE(bytes_identical(ref.m, single.m));
  }
}

TEST(KernelBitExact, Rkf45MatchesReferenceIncludingStepControl) {
  const auto ref = run_steps(StepperKind::kRkf45, 1, 1, 25, 2e-13);
  const auto fused = run_steps(StepperKind::kRkf45, 0, 1, 25, 2e-13);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
  // The embedded error estimate feeds the step controller; identical bytes
  // require the accept/reject history and final dt to agree exactly.
  EXPECT_EQ(ref.stats.steps_taken, fused.stats.steps_taken);
  EXPECT_EQ(ref.stats.steps_rejected, fused.stats.steps_rejected);
  EXPECT_EQ(ref.stats.field_evaluations, fused.stats.field_evaluations);
  EXPECT_EQ(ref.stats.last_dt, fused.stats.last_dt);
}

TEST(KernelBitExact, Rkf45StepHalvingRecoveryMatches) {
  // A tolerance tight enough that the initial dt is rejected and halved:
  // the recovery path (reject, shrink, retry) must replay identically.
  const auto ref = run_steps(StepperKind::kRkf45, 1, 1, 12, 5e-12, 1e-13);
  const auto fused = run_steps(StepperKind::kRkf45, 0, 1, 12, 5e-12, 1e-13);
  ASSERT_GT(ref.stats.steps_rejected, 0u)
      << "tolerance did not force a rejection; tighten the test";
  EXPECT_EQ(ref.stats.steps_rejected, fused.stats.steps_rejected);
  EXPECT_EQ(ref.stats.last_dt, fused.stats.last_dt);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
}

struct Trip {
  std::size_t steps = 0;  // completed steps before the throw
  std::string message;
  VectorField m;          // the AoS state the throw left behind
};

// Steps a Stepper until the watchdog throws on an injected NaN.
Trip stepper_trip(int ref_mode) {
  KernelModeGuard guard;
  kernels::set_force_reference(ref_mode);
  robust::ScopedFaultPlan plan;
  plan->inject_nan_at_step(5);

  const Grid g = make_grid();
  const System sys(g, Material::fecob(), bordered_triangle_mask(g));
  auto terms = make_terms(g);
  Trip trip;
  trip.m = initial_m(sys);

  Stepper stepper(StepperKind::kRk4, 2e-13);
  robust::WatchdogConfig wd;
  wd.cadence = 1;
  stepper.set_watchdog(wd);

  double t = 0.0;
  for (std::size_t s = 0; s < 32; ++s) {
    try {
      t += stepper.step(sys, terms, trip.m, t);
    } catch (const robust::SolveError& e) {
      trip.steps = s;
      trip.message = e.what();
      return trip;
    }
  }
  ADD_FAILURE() << "watchdog never tripped";
  return trip;
}

// The same injected NaN through Simulation::run, where the state is
// resident in slot order between write-backs.
Trip simulation_trip(int ref_mode) {
  KernelModeGuard guard;
  kernels::set_force_reference(ref_mode);
  robust::ScopedFaultPlan plan;
  plan->inject_nan_at_step(5);

  const Grid g = make_grid();
  Simulation sim(System(g, Material::fecob(), bordered_triangle_mask(g)));
  for (auto& term : make_terms(g)) sim.add_term(std::move(term));
  sim.set_magnetization(initial_m(sim.system()));
  sim.set_stepper(StepperKind::kRk4, 2e-13);
  robust::WatchdogConfig wd;
  wd.cadence = 1;
  sim.set_watchdog(wd);
  Trip trip;
  try {
    sim.run(32 * 2e-13);
    ADD_FAILURE() << "watchdog never tripped";
  } catch (const robust::SolveError& e) {
    trip.message = e.what();
  }
  trip.steps = sim.stepper_stats().steps_taken;
  trip.m = sim.magnetization();
  return trip;
}

TEST(KernelBitExact, WatchdogTripsAtTheSameStep) {
  // The injected NaN lands on slot 0 of the kernel state and on the first
  // magnetic cell of the reference's AoS field: the scan must fire on the
  // identical step with the identical message, naming the grid cell (not
  // the slot), and leave identical raw bytes behind.
  const std::string cell = "cell " + std::to_string(kBorderedFirstCell);
  const Trip ref = stepper_trip(1);
  const Trip fused = stepper_trip(0);
  EXPECT_EQ(ref.steps, fused.steps);
  EXPECT_EQ(ref.message, fused.message);
  EXPECT_NE(fused.message.find(cell), std::string::npos) << fused.message;
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));

  const Trip sim_ref = simulation_trip(1);
  const Trip sim_fused = simulation_trip(0);
  EXPECT_EQ(sim_ref.steps, sim_fused.steps);
  EXPECT_EQ(sim_ref.message, sim_fused.message);
  EXPECT_NE(sim_fused.message.find(cell), std::string::npos)
      << sim_fused.message;
  EXPECT_TRUE(bytes_identical(sim_ref.m, sim_fused.m));
}

TEST(KernelDeterminism, CellJobsDoNotChangeBytes) {
  const auto serial = run_steps(StepperKind::kRk4, 0, 1, 20, 2e-13);
  const auto jobs2 = run_steps(StepperKind::kRk4, 0, 2, 20, 2e-13);
  const auto jobs8 = run_steps(StepperKind::kRk4, 0, 8, 20, 2e-13);
  EXPECT_TRUE(bytes_identical(serial.m, jobs2.m));
  EXPECT_TRUE(bytes_identical(serial.m, jobs8.m));
}

TEST(KernelDeterminism, OvfOutputIsByteIdentical) {
  const auto ref = run_steps(StepperKind::kRk4, 1, 1, 10, 2e-13);
  const auto fused = run_steps(StepperKind::kRk4, 0, 4, 10, 2e-13);
  const std::string dir = ::testing::TempDir();
  const std::string pa = dir + "kernels_ref.ovf";
  const std::string pb = dir + "kernels_fused.ovf";
  io::write_ovf(pa, ref.m, "t");
  io::write_ovf(pb, fused.m, "t");
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string a = slurp(pa);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(pb));
}

// --- resident solves: Simulation::run on slot-indexed state -------------

// A zero uniform field that fires `token` on its n-th accepted step. It
// lowers to the same kernel op as UniformZeemanField, so both solver paths
// see the cancel at the same step and it adds an exact +0.0 to the field.
class CancelAtStep final : public FieldTerm {
 public:
  CancelAtStep(robust::CancelToken token, std::size_t step)
      : token_(std::move(token)), step_(step) {}
  std::string name() const override { return "cancel_at_step"; }
  void accumulate(const System& sys, const VectorField& m, double t,
                  VectorField& h) override {
    zero_.accumulate(sys, m, t, h);
  }
  void advance_step(double) override {
    if (++steps_ == step_) token_.request_cancel();
  }
  bool compile_kernel(const System& sys,
                      kernels::TermOp& op) const override {
    return zero_.compile_kernel(sys, op);
  }

 private:
  UniformZeemanField zero_{Vec3{0, 0, 0}};
  robust::CancelToken token_;
  std::size_t step_;
  std::size_t steps_ = 0;
};

constexpr double kRigDt = 2e-13;
constexpr double kRigDriveHz = 2.6e9;

struct Rig {
  int ref_mode = 0;           // 1 = scalar oracle, 0 = kernel path
  std::size_t cell_jobs = 1;
  double dt = kRigDt;
  std::size_t cancel_at = 0;  // accepted step that fires the token; 0 = never
  double temperature = 0.0;   // > 0 adds a seeded ThermalField
  bool armed = true;          // metrics armed for the solve
};

// Everything a solve lets a caller observe.
struct Observed {
  std::vector<VectorField> m;  // magnetization() after each run() call
  std::vector<std::vector<double>> series;  // per probe: t, mx, my, mz, env
  std::string error;
  StepperStats stats;
  double energy_j = 0.0;  // last energy-watchdog sample (physics telemetry)
};

// Arms metrics for one solve, so the physics registry records the energy
// the watchdog computes from the written-back AoS field (and the sampled
// per-term eval path runs), and disarms on exit.
struct ArmedMetrics {
  ArmedMetrics() {
    obs::MetricsRegistry::arm();
    obs::PhysicsRegistry::global().reset();
  }
  ~ArmedMetrics() { obs::MetricsRegistry::disarm(); }
};

Mask column_band(const Grid& g, std::size_t x0, std::size_t x1) {
  Mask region(g, false);
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = x0; x < x1; ++x) region.set(g.index(x, y, 0), true);
  }
  return region;
}

// The masked, antenna-driven rig: every lowerable term, two probes (one
// with a live demodulator), and the watchdog at cadence 8, so the energy
// check scatters the resident state to the AoS field every 8 steps. Vacuum
// starts at -0.0, which the reference's per-step "+= 0" turns into +0.0.
std::unique_ptr<Simulation> make_rig(const Rig& rig) {
  const Grid g = make_grid();
  auto sim = std::make_unique<Simulation>(
      System(g, Material::fecob(), bordered_triangle_mask(g)));
  for (auto& term : make_terms(g)) sim->add_term(std::move(term));
  if (rig.temperature > 0.0) {
    sim->add_term(std::make_unique<ThermalField>(rig.temperature, 9));
  }
  VectorField m0 = initial_m(sim->system());
  const auto& mask = sim->system().mask();
  for (std::size_t i = 0; i < m0.size(); ++i) {
    if (!mask[i]) m0[i] = Vec3{-0.0, -0.0, -0.0};
  }
  sim->set_magnetization(m0);
  sim->set_stepper(StepperKind::kRk4, rig.dt);
  robust::WatchdogConfig wd;
  wd.cadence = 8;
  sim->set_watchdog(wd);
  const double sample_dt = 4 * kRigDt;
  sim->add_probe("near", column_band(g, 8, 12), sample_dt)
      .arm_demodulator(kRigDriveHz, 8);
  sim->add_probe("far", column_band(g, 14, 18), sample_dt);
  if (rig.cancel_at > 0) {
    robust::CancelToken token;
    sim->set_cancel_token(token);
    sim->add_term(std::make_unique<CancelAtStep>(token, rig.cancel_at));
  }
  return sim;
}

Observed observe(Simulation& sim) {
  Observed o;
  for (const char* name : {"near", "far"}) {
    const RegionProbe& p = sim.probe(name);
    std::vector<double> env;
    if (const LockinDemodulator* d = p.demodulator()) {
      env = d->times();
      env.insert(env.end(), d->amplitude().begin(), d->amplitude().end());
      env.insert(env.end(), d->phase().begin(), d->phase().end());
    }
    o.series.push_back(p.times());
    o.series.push_back(p.mx());
    o.series.push_back(p.my());
    o.series.push_back(p.mz());
    o.series.push_back(std::move(env));
  }
  o.stats = sim.stepper_stats();
  o.energy_j = obs::PhysicsRegistry::global().snapshot().total_energy_j;
  return o;
}

// Runs the rig through run(d) for each d in `durations`, reading
// magnetization() after every call; a thrown SolveError ends the solve.
Observed solve_rig(const Rig& rig, const std::vector<double>& durations) {
  KernelModeGuard guard;
  std::optional<ArmedMetrics> metrics;
  if (rig.armed) metrics.emplace();
  kernels::set_force_reference(rig.ref_mode);
  kernels::set_cell_jobs(rig.cell_jobs);
  auto sim = make_rig(rig);
  std::vector<VectorField> snapshots;
  std::string error;
  try {
    for (const double d : durations) {
      sim->run(d);
      snapshots.push_back(sim->magnetization());
    }
  } catch (const robust::SolveError& e) {
    error = e.what();
    snapshots.push_back(sim->magnetization());
  }
  Observed o = observe(*sim);
  o.m = std::move(snapshots);
  o.error = std::move(error);
  return o;
}

::testing::AssertionResult same_observation(const Observed& a,
                                            const Observed& b) {
  if (a.m.size() != b.m.size()) {
    return ::testing::AssertionFailure() << "different number of runs";
  }
  for (std::size_t r = 0; r < a.m.size(); ++r) {
    auto same = bytes_identical(a.m[r], b.m[r]);
    if (!same) return same << " (magnetization after run " << r << ")";
  }
  if (a.series.size() != b.series.size()) {
    return ::testing::AssertionFailure() << "different probe layout";
  }
  for (std::size_t k = 0; k < a.series.size(); ++k) {
    const auto& x = a.series[k];
    const auto& y = b.series[k];
    if (x.size() != y.size() ||
        (!x.empty() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return ::testing::AssertionFailure()
             << "probe series " << k << " differs (" << x.size() << " vs "
             << y.size() << " samples)";
    }
  }
  if (a.error != b.error) {
    return ::testing::AssertionFailure()
           << "errors differ: '" << a.error << "' vs '" << b.error << "'";
  }
  if (a.stats.steps_taken != b.stats.steps_taken) {
    return ::testing::AssertionFailure() << "step counts differ";
  }
  if (std::memcmp(&a.energy_j, &b.energy_j, sizeof(double)) != 0) {
    return ::testing::AssertionFailure()
           << "watchdog energies differ: " << a.energy_j << " vs "
           << b.energy_j;
  }
  return ::testing::AssertionSuccess();
}

const std::vector<double> kRigRun = {120 * kRigDt};

TEST(KernelResident, SimulationMatchesOracleAtAnyCellJobs) {
  const Observed ref = solve_rig(Rig{1, 1}, kRigRun);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  ASSERT_NE(ref.energy_j, 0.0) << "the energy watchdog never sampled";
  ASSERT_FALSE(ref.series[4].empty()) << "demodulator never completed";
  EXPECT_TRUE(same_observation(ref, solve_rig(Rig{0, 1}, kRigRun)));
  EXPECT_TRUE(same_observation(ref, solve_rig(Rig{0, 4}, kRigRun)));
}

TEST(KernelResident, SampledAttributionTimesEveryTermAndKeepsTheBytes) {
  // Armed, every 64th evaluation runs each op alone under its
  // "mag.term.<name>.us" timer; the bytes must not notice.
  obs::MetricsRegistry::global().reset();
  const Observed armed = solve_rig(Rig{0, 1}, kRigRun);
  std::uint64_t total_us = 0;
  const auto counters = obs::MetricsRegistry::global().counters_snapshot();
  for (const char* term : {"exchange", "anisotropy", "demag(thin-film)",
                           "zeeman", "antenna"}) {
    const std::string name = std::string("mag.term.") + term + ".us";
    bool found = false;
    for (const auto& [key, us] : counters) {
      if (key != name) continue;
      found = true;
      total_us += us;
    }
    EXPECT_TRUE(found) << name << " not registered";
  }
  EXPECT_GT(total_us, 0u) << "no sampled evaluation was timed";
  for (const std::size_t jobs : {1u, 4u}) {
    Rig bare{0, jobs};
    bare.armed = false;
    Observed disarmed = solve_rig(bare, kRigRun);
    // The energy telemetry records only while armed.
    disarmed.energy_j = armed.energy_j;
    EXPECT_TRUE(same_observation(armed, disarmed)) << jobs << " cell jobs";
  }
}

TEST(KernelResident, SplitRunMatchesOneRun) {
  // run(a); magnetization(); run(b) must be run(a + b): the first run's
  // write-back is exact and the second gathers from it.
  const std::vector<double> split = {40 * kRigDt, 80 * kRigDt};
  const Observed ref = solve_rig(Rig{1, 1}, split);
  const Observed fused = solve_rig(Rig{0, 1}, split);
  EXPECT_TRUE(same_observation(ref, fused));
  const Observed whole = solve_rig(Rig{0, 1}, kRigRun);
  ASSERT_EQ(fused.m.size(), 2u);
  EXPECT_TRUE(bytes_identical(fused.m[1], whole.m[0]));
  EXPECT_EQ(fused.series, whole.series);
}

TEST(KernelResident, CancelMidRunLeavesTheOracleState) {
  const Observed ref = solve_rig(Rig{1, 1, kRigDt, 50}, kRigRun);
  ASSERT_NE(ref.error.find("cancelled"), std::string::npos) << ref.error;
  EXPECT_EQ(ref.stats.steps_taken, 50u);
  EXPECT_TRUE(same_observation(ref, solve_rig(Rig{0, 1, kRigDt, 50}, kRigRun)));
  EXPECT_TRUE(same_observation(ref, solve_rig(Rig{0, 4, kRigDt, 50}, kRigRun)));
}

// run_guarded over the rig with a NaN injected at step 20, which trips the
// cadence-8 watchdog a few steps later; run_guarded rewinds state, clock
// and probes and re-solves at dt/2.
Observed solve_guarded(const Rig& rig) {
  KernelModeGuard guard;
  ArmedMetrics metrics;
  kernels::set_force_reference(rig.ref_mode);
  kernels::set_cell_jobs(rig.cell_jobs);
  robust::ScopedFaultPlan plan;
  plan->inject_nan_at_step(20);
  auto sim = make_rig(rig);
  const robust::Status status = sim->run_guarded(kRigRun[0]);
  EXPECT_TRUE(status.is_ok()) << status.message();
  Observed o = observe(*sim);
  o.m.push_back(sim->magnetization());
  return o;
}

TEST(KernelResident, GuardedStepHalvingReplayIsBitExact) {
  // The replay must match the oracle's replay and a clean dt/2 solve.
  const Observed ref = solve_guarded(Rig{1});
  const Observed fused = solve_guarded(Rig{0});
  EXPECT_TRUE(same_observation(ref, fused));
  const Observed clean = solve_rig(Rig{0, 1, kRigDt / 2}, kRigRun);
  EXPECT_TRUE(same_observation(clean, fused));
}

TEST(KernelResident, ThermalSimulationMatchesOracleAtAnyCellJobs) {
  const Rig hot{1, 1, kRigDt, 0, 300.0};
  const Observed ref = solve_rig(hot, kRigRun);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  for (const std::size_t jobs : {1u, 4u}) {
    Rig rig = hot;
    rig.ref_mode = 0;
    rig.cell_jobs = jobs;
    EXPECT_TRUE(same_observation(ref, solve_rig(rig, kRigRun)))
        << jobs << " cell jobs";
  }
  EXPECT_FALSE(same_observation(ref, solve_rig(Rig{1}, kRigRun)))
      << "300 K solved like 0 K";
}

TEST(KernelResident, ThermalGuardedStepHalvingReplayIsBitExact) {
  // The rewind restores the noise stream too: the dt/2 replay draws the
  // numbers a clean dt/2 solve draws, on both paths.
  const Observed ref = solve_guarded(Rig{1, 1, kRigDt, 0, 300.0});
  EXPECT_EQ(ref.stats.steps_taken, 240u) << "no dt/2 replay ran";
  EXPECT_TRUE(same_observation(ref, solve_guarded(Rig{0, 1, kRigDt, 0, 300.0})));
  EXPECT_TRUE(same_observation(ref, solve_guarded(Rig{0, 4, kRigDt, 0, 300.0})));
  const Observed clean = solve_rig(Rig{0, 1, kRigDt / 2, 0, 300.0}, kRigRun);
  EXPECT_TRUE(same_observation(clean, ref));
}

// --- AntennaField fast-path regression ---------------------------------

TEST(AntennaFastPath, MatchesFullGridSweep) {
  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  const Mask region = antenna_region(g);
  const double amplitude = 5.0e3, frequency = 2.6e9, phase = 0.3;
  AntennaField antenna(region, amplitude, Vec3{1, 0, 0}, frequency, phase);

  const VectorField m = initial_m(sys);
  for (const double t : {0.0, 7.3e-12, 1.9e-10}) {
    VectorField fast(g);
    // Seed the accumulator with a nonzero pattern so "+= drive" starts from
    // the same bytes a real term stack would.
    for (std::size_t i = 0; i < fast.size(); ++i) {
      fast[i] = Vec3{0.5 * static_cast<double>(i % 7), -1.25, 3.0};
    }
    VectorField full = fast;
    antenna.accumulate(sys, m, t, fast);

    // The pre-fast-path reference semantics: scan the whole grid, drive
    // region ∧ mask cells.
    const double env = 1.0;  // continuous envelope
    const Vec3 drive =
        Vec3{1, 0, 0} * (amplitude * env *
                         std::sin(2.0 * swsim::math::kPi * frequency * t +
                                  phase));
    const auto& mask = sys.mask();
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (region[i] && mask[i]) full[i] += drive;
    }
    EXPECT_TRUE(bytes_identical(fast, full)) << "at t = " << t;
  }
}

// --- plan structure ------------------------------------------------------

TEST(KernelPlan, RejectsTermsItCannotLower) {
  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  {
    // Thermal noise lowers to a per-slot op; the non-local demag does not.
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<ExchangeField>());
    terms.push_back(std::make_unique<ThermalField>(300.0));
    EXPECT_NE(kernels::build_plan(sys, terms), nullptr);
    terms.push_back(std::make_unique<NewellDemagField>(sys));
    EXPECT_EQ(kernels::build_plan(sys, terms), nullptr);
  }
  {
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<NewellDemagField>(sys));
    EXPECT_EQ(kernels::build_plan(sys, terms), nullptr);
  }
}

TEST(KernelPlan, InteriorAndEdgePartitionTheActiveSet) {
  for (const bool bordered : {false, true}) {
    SCOPED_TRACE(bordered ? "bordered triangle" : "triangle");
    const Grid g = make_grid();
    const System sys(g, Material::fecob(),
                     bordered ? bordered_triangle_mask(g) : triangle_mask(g));
    auto terms = make_terms(g);
    const auto plan = kernels::build_plan(sys, terms);
    ASSERT_NE(plan, nullptr);
    ASSERT_GT(plan->runs.size(), 0u);
    ASSERT_GT(plan->edge_slots.size(), 0u);

    const std::size_t slots = plan->active.size();
    EXPECT_EQ(slots, sys.magnetic_cell_count());
    EXPECT_EQ(plan->interior_total + plan->edge_slots.size(), slots);
    const auto& mask = sys.mask();
    for (std::size_t s = 0; s < slots; ++s) {
      EXPECT_TRUE(mask[plan->active[s]]);
      if (s > 0) {
        EXPECT_LT(plan->active[s - 1], plan->active[s]);
      }
    }
    for (const auto* v : {&plan->alpha, &plan->llg_pref, &plan->ms}) {
      EXPECT_EQ(v->size(), slots);
    }

    // Every edge-table neighbour is a slot in range: the slot of the grid
    // neighbour when that cell is magnetic, the self-slot otherwise.
    ASSERT_EQ(plan->nb.size(), 6 * slots);
    for (std::size_t s = 0; s < slots; ++s) {
      const auto xyz = g.unindex(plan->active[s]);
      for (int k = 0; k < 6; ++k) {
        const std::uint32_t n = plan->nb[6 * s + k];
        ASSERT_LT(n, slots);
        if (n == s) continue;
        const auto nxyz = g.unindex(plan->active[n]);
        const int axis = k >> 1;
        const long step = (k & 1) ? 1 : -1;
        const long d[3] = {static_cast<long>(nxyz.x) - static_cast<long>(xyz.x),
                           static_cast<long>(nxyz.y) - static_cast<long>(xyz.y),
                           static_cast<long>(nxyz.z) - static_cast<long>(xyz.z)};
        for (int a = 0; a < 3; ++a) {
          EXPECT_EQ(d[a], a == axis ? step : 0) << "slot " << s << " nb " << k;
        }
      }
    }

    // Every interior cell is active with every existing-axis neighbour
    // in-bounds and active, its run is a contiguous slot range, each ±x/±y
    // span base covers the all-active contiguous neighbour cells, and no
    // cell appears twice.
    std::vector<int> seen(g.cell_count(), 0);
    std::uint64_t counted = 0;
    for (std::size_t r = 0; r < plan->runs.size(); ++r) {
      const auto& run = plan->runs[r];
      EXPECT_EQ(plan->run_prefix[r], counted);
      ASSERT_LE(run.s + (run.e - run.b), slots);
      for (std::uint32_t k = 0; k < run.e - run.b; ++k) {
        const std::uint32_t i = run.b + k;
        EXPECT_EQ(plan->active[run.s + k], i);
        ++seen[i];
        EXPECT_TRUE(mask[i]);
        const auto xyz = g.unindex(i);
        ASSERT_GT(xyz.x, 0u);
        ASSERT_LT(xyz.x + 1, g.nx());
        ASSERT_GT(xyz.y, 0u);
        ASSERT_LT(xyz.y + 1, g.ny());
        const std::size_t expect[4] = {g.index(xyz.x - 1, xyz.y, 0),
                                       g.index(xyz.x + 1, xyz.y, 0),
                                       g.index(xyz.x, xyz.y - 1, 0),
                                       g.index(xyz.x, xyz.y + 1, 0)};
        for (int j = 0; j < 4; ++j) {
          ASSERT_LT(run.nb[j] + k, slots);
          EXPECT_TRUE(mask[expect[j]]);
          EXPECT_EQ(plan->active[run.nb[j] + k], expect[j])
              << "run " << r << " offset " << k << " span " << j;
        }
      }
      counted += run.e - run.b;
    }
    EXPECT_EQ(counted, plan->interior_total);
    for (const std::uint32_t s : plan->edge_slots) ++seen[plan->active[s]];
    for (std::size_t i = 0; i < g.cell_count(); ++i) {
      EXPECT_EQ(seen[i], mask[i] ? 1 : 0) << "cell " << i;
    }
  }
}

TEST(KernelPlan, AntennaGateMatchesRegionAndMask) {
  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  auto terms = make_terms(g);
  const auto plan = kernels::build_plan(sys, terms);
  ASSERT_NE(plan, nullptr);

  const kernels::TermOp* antenna = nullptr;
  for (const auto& op : plan->ops) {
    if (op.kind == kernels::OpKind::kAntenna) antenna = &op;
  }
  ASSERT_NE(antenna, nullptr);
  const std::size_t slots = plan->active.size();
  ASSERT_EQ(antenna->gate.size(), slots);

  // The gate and the region list are per slot; the run bits summarize the
  // gate per run.
  const Mask region = antenna_region(g);
  std::vector<std::uint32_t> driven;
  for (std::size_t s = 0; s < slots; ++s) {
    const bool in = region[plan->active[s]];
    EXPECT_EQ(antenna->gate[s], in ? 1.0 : 0.0) << "slot " << s;
    if (in) driven.push_back(static_cast<std::uint32_t>(s));
  }
  EXPECT_EQ(antenna->cells, driven);
  ASSERT_EQ(antenna->bit, 1u);
  for (const auto& run : plan->runs) {
    bool any = false;
    for (std::uint32_t k = 0; k < run.e - run.b && !any; ++k) {
      any = antenna->gate[run.s + k] != 0.0;
    }
    EXPECT_EQ((run.antenna & antenna->bit) != 0, any);
  }
}

}  // namespace
}  // namespace swsim::mag
