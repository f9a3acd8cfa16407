// Lock-in (single-bin DFT) amplitude and phase estimation.
//
// The complex amplitude at the excitation frequency f0 is what the paper's
// detectors read: its phase implements phase detection (Majority gate), its
// magnitude threshold detection (XOR gate). lockin() takes uniformly
// spaced samples only. Solver probe samples land on integration steps and
// are not uniform; mag::LockinDemodulator reads those.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace swsim::math {

struct LockinResult {
  double amplitude = 0.0;  // |X(f0)| scaled so a pure sine of amplitude A -> A
  double phase = 0.0;      // radians in (-pi, pi]; phase of cos convention
  std::complex<double> phasor;  // amplitude * e^{i phase}
};

// Estimates the complex amplitude of `samples` (uniformly spaced by dt,
// starting at t = t0) at frequency f0, i.e. fits  x(t) ~ A cos(2 pi f0 t + p).
//
// The estimate uses the samples over the longest whole number of periods that
// fits (discarding the ragged tail), which suppresses spectral leakage
// without windowing. Throws std::invalid_argument if fewer than one full
// period of samples is supplied or dt/f0 are non-positive.
LockinResult lockin(const std::vector<double>& samples, double dt, double f0,
                    double t0 = 0.0);

// Root-mean-square of a sample vector (0 for empty input).
double rms(const std::vector<double>& samples);

// Peak absolute value (0 for empty input).
double peak(const std::vector<double>& samples);

// Wraps an angle to (-pi, pi].
double wrap_phase(double radians);

// Absolute phase distance |a - b| after wrapping, in [0, pi].
double phase_distance(double a, double b);

}  // namespace swsim::math
