// Probe rewind under divergence recovery: a run that hits an injected NaN,
// rewinds, and re-solves at dt/2 must record the exact series — raw
// samples and demodulated envelope — that a clean dt/2 run records. Plus
// the bounded-probe (decimating) and mid-window demodulator checkpoint
// paths driven directly, without a solver in the loop.
#include "mag/probe.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "mag/simulation.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "obs/metrics.h"
#include "obs/physics.h"
#include "robust/fault_injection.h"
#include "wavenet/dispersion.h"

namespace swsim::mag {
namespace {

using namespace swsim::math;

System small_system() {
  return System(Grid(4, 4, 1, 5e-9, 5e-9, 1e-9), Material::fecob());
}

double drive_frequency() {
  static const double f =
      wavenet::Dispersion(Material::fecob(), 1e-9).frequency(0.0) * 1.001;
  return f;
}

// Antenna-driven rig with one demodulated probe, the paper's detection
// geometry in miniature. Watchdog cadence 4 so an injected NaN is caught
// on the poisoned step itself.
RegionProbe& configure(Simulation& sim, double dt) {
  sim.add_standard_terms();
  Mask region(sim.system().grid(), true);
  const double f = drive_frequency();
  sim.add_term(
      std::make_unique<AntennaField>(region, 2e3, Vec3{1, 0, 0}, f, 0.0));
  auto& probe = sim.add_probe("port", region, 1.0 / (32.0 * f));
  probe.arm_demodulator(f, 32);
  sim.set_stepper(StepperKind::kRk4, dt);
  robust::WatchdogConfig dog;
  dog.cadence = 4;
  sim.set_watchdog(dog);
  return probe;
}

void expect_same_series(const RegionProbe& a, const RegionProbe& b) {
  EXPECT_EQ(a.times(), b.times());
  EXPECT_EQ(a.mx(), b.mx());
  EXPECT_EQ(a.my(), b.my());
  EXPECT_EQ(a.mz(), b.mz());
}

// The gate's readout — the mean phasor of the demodulator windows that
// start at or after t_from — must come through a rewind bit-exact.
void expect_same_readout(const LockinDemodulator& a,
                         const LockinDemodulator& b, double t_from) {
  const auto ra = a.settled(t_from);
  const auto rb = b.settled(t_from);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->amplitude, rb->amplitude);
  EXPECT_EQ(ra->phase, rb->phase);
}

// One divergence-recovery scenario: the run length, the step the NaN is
// injected at, and whether metrics (and so the physics registry) are armed.
struct RewindCase {
  const char* label;
  double duration;
  std::size_t nan_step;
  bool metrics;
};

TEST(ProbeRewind, RecoveredRunMatchesCleanHalvedRunBitExact) {
  // Recovery rewinds probes (and their demodulators) to the run_guarded
  // call point and re-solves the whole interval at dt/2, so the recorded
  // series must be byte-identical to a run that used dt/2 from the start.
  // With metrics armed the physics registry must also forget the failed
  // attempt's windows and energy samples: a NaN after >= 2 completed
  // windows must leave the same snapshot a clean dt/2 run leaves.
  const RewindCase cases[] = {
      {"early NaN, metrics disarmed", ns(0.4), 8, false},
      {"NaN after 2 windows, metrics armed", ns(1.0), 3000, true},
  };
  for (const RewindCase& c : cases) {
    SCOPED_TRACE(c.label);
    if (c.metrics) obs::MetricsRegistry::arm();
    auto& physics = obs::PhysicsRegistry::global();

    physics.reset();
    obs::MetricsRegistry::global().reset();
    Simulation recovered(small_system());
    auto& dirty = configure(recovered, ps(0.2));
    {
      robust::ScopedFaultPlan plan;
      plan->inject_nan_at_step(c.nan_step);  // budget 1: first attempt only
      const auto status = recovered.run_guarded(c.duration);
      ASSERT_TRUE(status.is_ok()) << status.str();
    }
    EXPECT_NEAR(recovered.stepper_stats().last_dt, ps(0.1), 1e-18);
    const auto recovered_physics = physics.snapshot();
    // The work counter keeps the failed attempt's windows.
    const std::uint64_t windows_worked =
        obs::MetricsRegistry::global().counter("mag.probe.windows").value();

    physics.reset();
    Simulation clean(small_system());
    auto& reference = configure(clean, ps(0.1));
    const auto status = clean.run_guarded(c.duration);
    ASSERT_TRUE(status.is_ok()) << status.str();
    const auto clean_physics = physics.snapshot();
    obs::MetricsRegistry::disarm();
    physics.reset();

    ASSERT_GT(reference.sample_count(), 0u);
    expect_same_series(dirty, reference);

    // The live lock-in envelope came through the rewind bit-exact too.
    const auto* d1 = dirty.demodulator();
    const auto* d2 = reference.demodulator();
    ASSERT_NE(d1, nullptr);
    ASSERT_NE(d2, nullptr);
    ASSERT_GT(d2->window_count(), 0u);
    EXPECT_EQ(d1->times(), d2->times());
    EXPECT_EQ(d1->amplitude(), d2->amplitude());
    EXPECT_EQ(d1->phase(), d2->phase());
    expect_same_readout(*d1, *d2, 0.0);

    if (c.metrics) {
      ASSERT_EQ(clean_physics.probes.count("port"), 1u);
      EXPECT_EQ(recovered_physics.probes.at("port").windows,
                clean_physics.probes.at("port").windows);
      EXPECT_EQ(clean_physics.probes.at("port").windows, d2->window_count());
      EXPECT_EQ(recovered_physics.energy_samples,
                clean_physics.energy_samples);
      EXPECT_TRUE(recovered_physics == clean_physics);
      EXPECT_GE(windows_worked, clean_physics.probes.at("port").windows + 2);
    }
  }
}

// --- direct probe checkpointing, no solver ------------------------------

TEST(ProbeRewind, BoundedProbeValidatesMaxSamples) {
  const System sys = small_system();
  const Mask region(sys.grid(), true);
  EXPECT_THROW(RegionProbe("p", region, 1.0, 6), std::invalid_argument);
  EXPECT_THROW(RegionProbe("p", region, 1.0, 9), std::invalid_argument);
  EXPECT_NO_THROW(RegionProbe("p", region, 1.0, 8));
  EXPECT_NO_THROW(RegionProbe("p", region, 1.0, 0));  // unbounded
}

TEST(ProbeRewind, UnboundedProbeRestoreDropsTheTail) {
  const System sys = small_system();
  VectorField m(sys.grid(), Vec3{0, 0, 1});
  RegionProbe probe("p", Mask(sys.grid(), true), 1.0);
  for (std::size_t i = 0; i < 10; ++i) {
    m[0].x = std::sin(0.1 * static_cast<double>(i));
    probe.maybe_record(sys, m, static_cast<double>(i));
  }
  const auto cp = probe.checkpoint();
  EXPECT_FALSE(cp.full);  // unbounded: position only, no series snapshot
  for (std::size_t i = 10; i < 15; ++i) {
    probe.maybe_record(sys, m, static_cast<double>(i));
  }
  ASSERT_EQ(probe.sample_count(), 15u);
  probe.restore(cp);
  EXPECT_EQ(probe.sample_count(), 10u);
  EXPECT_DOUBLE_EQ(probe.times().back(), 9.0);
}

TEST(ProbeRewind, BoundedProbeCheckpointSurvivesDecimation) {
  // A decimation after the checkpoint rewrites earlier samples in place,
  // so the bounded checkpoint snapshots the series wholesale. Diverge past
  // another decimation, restore, replay — identical to a straight run.
  const System sys = small_system();
  VectorField m(sys.grid(), Vec3{0, 0, 1});
  const auto feed = [&](RegionProbe& p, std::size_t from, std::size_t to,
                        bool garbage) {
    for (std::size_t i = from; i < to; ++i) {
      m[0].x = garbage ? 99.0 : std::sin(0.1 * static_cast<double>(i));
      p.maybe_record(sys, m, static_cast<double>(i));
    }
  };

  RegionProbe straight("b", Mask(sys.grid(), true), 1.0, 8);
  feed(straight, 0, 40, false);
  // The bound held and the interval doubled along the way.
  EXPECT_LE(straight.sample_count(), 8u);
  EXPECT_GT(straight.sample_dt(), 1.0);

  RegionProbe rewound("b", Mask(sys.grid(), true), 1.0, 8);
  feed(rewound, 0, 20, false);  // already past the first decimation
  const auto cp = rewound.checkpoint();
  EXPECT_TRUE(cp.full);
  feed(rewound, 20, 40, true);  // the divergent branch
  rewound.restore(cp);
  feed(rewound, 20, 40, false);  // replay the true stream

  expect_same_series(rewound, straight);
  EXPECT_DOUBLE_EQ(rewound.sample_dt(), straight.sample_dt());
}

TEST(ProbeRewind, DemodulatorCheckpointRidesAlongMidWindow) {
  const System sys = small_system();
  VectorField m(sys.grid(), Vec3{0, 0, 1});
  const double f0 = 0.03;
  const auto feed = [&](RegionProbe& p, std::size_t from, std::size_t to,
                        bool garbage) {
    for (std::size_t i = from; i < to; ++i) {
      const double t = static_cast<double>(i);
      m[0].x = garbage ? 99.0 : std::cos(kTwoPi * f0 * t) + 0.01 * t;
      p.maybe_record(sys, m, t);
    }
  };

  RegionProbe straight("d", Mask(sys.grid(), true), 1.0);
  straight.arm_demodulator(f0, 8);
  feed(straight, 0, 32, false);

  RegionProbe rewound("d", Mask(sys.grid(), true), 1.0);
  rewound.arm_demodulator(f0, 8);
  feed(rewound, 0, 21, false);  // 2 windows + 5 samples into the third
  const auto cp = rewound.checkpoint();
  EXPECT_EQ(cp.demod.windows, 2u);
  EXPECT_EQ(cp.demod.in_window, 5u);
  feed(rewound, 21, 32, true);
  rewound.restore(cp);
  feed(rewound, 21, 32, false);

  expect_same_series(rewound, straight);
  ASSERT_NE(rewound.demodulator(), nullptr);
  EXPECT_EQ(rewound.demodulator()->times(), straight.demodulator()->times());
  EXPECT_EQ(rewound.demodulator()->amplitude(),
            straight.demodulator()->amplitude());
  EXPECT_EQ(rewound.demodulator()->phase(), straight.demodulator()->phase());
  // Window 2 was open at the checkpoint. Its first sample (t = 16) must
  // survive the restore, so that a readout from t = 17 still leaves it out.
  expect_same_readout(*rewound.demodulator(), *straight.demodulator(), 17.0);
}

}  // namespace
}  // namespace swsim::mag
