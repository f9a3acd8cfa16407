// Physics integration: spin waves propagating in a straight micromagnetic
// waveguide must match the analytical Kalinikos-Slavin dispersion that the
// wave-network backend uses — this test ties the two substrates together.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mag/simulation.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "math/lockin.h"
#include "wavenet/dispersion.h"

namespace swsim {
namespace {

using namespace swsim::math;
using mag::Material;

// A 1-cell-wide strip: effectively a 1D waveguide with thin-film demag.
// (The transverse confinement of a real strip shifts the dispersion; the
// 1D strip is the geometry the analytical model describes.)
mag::Simulation make_strip(std::size_t nx, double cell, double alpha_scale,
                           double drive_f, double drive_amp,
                           double drive_phase) {
  Material mat = Material::fecob();
  const Grid g(nx, 1, 1, cell, cell, nm(1));
  mag::System sys(g, mat);

  // Absorbing tail on the far end (last quarter) to kill reflections.
  ScalarField alpha(g, mat.alpha);
  for (std::size_t x = 3 * nx / 4; x < nx; ++x) {
    const double s = static_cast<double>(x - 3 * nx / 4) /
                     static_cast<double>(nx - 3 * nx / 4);
    alpha[g.index(x, 0, 0)] = mat.alpha + (0.5 - mat.alpha) * s * s * alpha_scale;
  }
  sys.set_alpha_field(alpha);

  mag::Simulation sim(std::move(sys));
  sim.add_standard_terms();

  Mask antenna(g);
  antenna.set_at(2, 0, true);
  antenna.set_at(3, 0, true);
  sim.add_term(std::make_unique<mag::AntennaField>(
      antenna, drive_amp, Vec3{1, 0, 0}, drive_f, drive_phase));
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.25));
  return sim;
}

TEST(WavePropagation, MeasuredWavelengthMatchesDispersion) {
  const wavenet::Dispersion disp(Material::fecob(), nm(1));
  const double lambda_design = nm(50);
  const double f = disp.frequency(wavenet::Dispersion::k_of_lambda(lambda_design));

  const std::size_t nx = 120;
  const double cell = nm(5);
  auto sim = make_strip(nx, cell, 1.0, f, 4e3, 0.0);
  sim.run(ns(1.2));

  // Fit the spatial oscillation of m_x in the steady region (between the
  // antenna and the absorber) by scanning the zero crossings.
  const auto& m = sim.magnetization();
  std::vector<double> crossings;
  for (std::size_t x = 8; x < 3 * nx / 4 - 2; ++x) {
    const double a = m[sim.system().grid().index(x, 0, 0)].x;
    const double b = m[sim.system().grid().index(x + 1, 0, 0)].x;
    if ((a <= 0.0 && b > 0.0) || (a >= 0.0 && b < 0.0)) {
      // Linear interpolation of the crossing position.
      crossings.push_back((static_cast<double>(x) + a / (a - b)) * cell);
    }
  }
  ASSERT_GE(crossings.size(), 4u);
  // Average crossing spacing = lambda / 2.
  const double measured_lambda =
      2.0 * (crossings.back() - crossings.front()) /
      static_cast<double>(crossings.size() - 1);
  EXPECT_NEAR(measured_lambda, lambda_design, lambda_design * 0.15);
}

TEST(WavePropagation, AntennaPhaseShiftsWavePhase) {
  // Driving with phase pi must produce the inverted waveform at a probe
  // downstream — the physical basis of the paper's phase encoding.
  const wavenet::Dispersion disp(Material::fecob(), nm(1));
  const double f = disp.frequency(wavenet::Dispersion::k_of_lambda(nm(50)));

  auto run_phase = [&](double drive_phase) {
    auto sim = make_strip(96, nm(5), 1.0, f, 4e3, drive_phase);
    Mask probe_region(sim.system().grid());
    probe_region.set_at(40, 0, true);
    auto& probe = sim.add_probe("p", probe_region, 1.0 / (32.0 * f));
    // Probe samples land on solver steps, so they are not uniformly
    // spaced: read them with the time-true demodulator (4-period windows),
    // averaged over the windows after the turn-on transient.
    probe.arm_demodulator(f, 128);
    sim.run(ns(1.0));
    const auto r = probe.demodulator()->settled(ns(0.6));
    EXPECT_TRUE(r.has_value());
    return r.value_or(LockinResult{});
  };

  const auto r0 = run_phase(0.0);
  const auto r1 = run_phase(kPi);
  EXPECT_GT(r0.amplitude, 1e-5);
  EXPECT_NEAR(phase_distance(r0.phase, r1.phase), kPi, 0.15);
  EXPECT_NEAR(r0.amplitude, r1.amplitude, r0.amplitude * 0.05);
}

TEST(WavePropagation, AmplitudeDecaysAlongGuide) {
  // Gilbert damping attenuates the traveling wave; the decay length must
  // be finite and of the order the dispersion model predicts.
  const wavenet::Dispersion disp(Material::fecob(), nm(1));
  const double k = wavenet::Dispersion::k_of_lambda(nm(50));
  const double f = disp.frequency(k);

  // Use artificially high damping so the decay is measurable on a short
  // strip.
  Material lossy = Material::fecob();
  lossy.alpha = 0.04;
  const Grid g(120, 1, 1, nm(5), nm(5), nm(1));
  mag::System sys(g, lossy);
  mag::Simulation sim(std::move(sys));
  sim.add_standard_terms();
  Mask antenna(g);
  antenna.set_at(2, 0, true);
  antenna.set_at(3, 0, true);
  sim.add_term(std::make_unique<mag::AntennaField>(antenna, 4e3,
                                                   Vec3{1, 0, 0}, f, 0.0));
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.25));
  sim.run(ns(1.2));

  // Envelope at two positions.
  auto envelope_at = [&](std::size_t x) {
    double peak = 0.0;
    for (std::size_t dx = 0; dx < 12; ++dx) {
      peak = std::max(peak, std::fabs(sim.magnetization()[g.index(x + dx, 0, 0)].x));
    }
    return peak;
  };
  const double near = envelope_at(10);
  const double far = envelope_at(70);
  EXPECT_GT(near, 0.0);
  EXPECT_LT(far, near);  // decays

  const wavenet::Dispersion lossy_disp(lossy, nm(1));
  const double latt = lossy_disp.attenuation_length(k);
  const double expected_ratio = std::exp(-(60.0 + 6.0) * nm(5) / latt);
  EXPECT_NEAR(far / near, expected_ratio, expected_ratio * 1.0);
}

TEST(WavePropagation, BelowFmrNoPropagation) {
  // Driving far below the FMR gap must not launch a propagating wave at
  // the drive frequency. (The turn-on transient rings near the FMR for a
  // long time at alpha = 0.004, so compare steady-state lock-in amplitudes
  // at the drive frequency rather than raw envelopes.)
  const wavenet::Dispersion disp(Material::fecob(), nm(1));
  const double f_low = disp.frequency(0.0) * 0.3;
  auto sim = make_strip(96, nm(5), 1.0, f_low, 4e3, 0.0);

  const auto& g = sim.system().grid();
  Mask near_region(g), far_region(g);
  for (std::size_t x = 5; x < 9; ++x) near_region.set_at(x, 0, true);
  for (std::size_t x = 50; x < 54; ++x) far_region.set_at(x, 0, true);
  const double sample_dt = 1.0 / (32.0 * f_low);
  auto& near_probe = sim.add_probe("near", near_region, sample_dt);
  auto& far_probe = sim.add_probe("far", far_region, sample_dt);
  // One-period demodulator windows (32 samples) at the drive frequency.
  near_probe.arm_demodulator(f_low, 32);
  far_probe.arm_demodulator(f_low, 32);
  // f_low ~ 1.1 GHz has a ~0.9 ns period: run long enough for several
  // settled periods after the turn-on transient.
  sim.run(ns(4.0));

  auto tail_amp = [&](const mag::RegionProbe& p) {
    const auto r = p.demodulator()->settled(ns(1.6));
    EXPECT_TRUE(r.has_value());
    return r.value_or(LockinResult{}).amplitude;
  };
  const double near_amp = tail_amp(near_probe);
  const double far_amp = tail_amp(far_probe);
  EXPECT_GT(near_amp, 0.0);
  // Evanescent at f_low: the drive-frequency response dies within tens of
  // nanometers, so 200+ nm away it is at least 30x smaller.
  EXPECT_LT(far_amp, near_amp / 30.0 + 1e-12);
}

}  // namespace
}  // namespace swsim
