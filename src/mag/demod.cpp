#include "mag/demod.h"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "math/constants.h"

namespace swsim::mag {

LockinDemodulator::LockinDemodulator(double f0, std::size_t window_samples)
    : f0_(f0), window_samples_(window_samples) {
  if (!(f0 > 0.0)) {
    throw std::invalid_argument("LockinDemodulator: f0 must be > 0");
  }
  if (window_samples < 2) {
    throw std::invalid_argument(
        "LockinDemodulator: window must span at least 2 samples");
  }
}

bool LockinDemodulator::add_sample(double t, double x) {
  const double w = swsim::math::kTwoPi * f0_;
  if (in_window_ == 0) t_first_.push_back(t);
  c_ += x * std::cos(w * t);
  s_ += x * std::sin(w * t);
  ++in_window_;
  if (in_window_ < window_samples_) return false;

  // Same single-bin DFT scaling and conventions as math::lockin.
  const double scale = 2.0 / static_cast<double>(window_samples_);
  const double re = c_ * scale;   // A cos p
  const double im = -s_ * scale;  // A sin p
  const double amplitude = std::hypot(re, im);
  t_.push_back(t);
  amplitude_.push_back(amplitude);
  phase_.push_back(amplitude > 0.0 ? std::atan2(im, re) : 0.0);
  in_window_ = 0;
  c_ = 0.0;
  s_ = 0.0;
  return true;
}

std::optional<swsim::math::LockinResult> LockinDemodulator::settled(
    double t_from) const {
  std::complex<double> sum;
  std::size_t n = 0;
  for (std::size_t k = 0; k < t_.size(); ++k) {
    if (t_first_[k] < t_from) continue;
    sum += std::polar(amplitude_[k], phase_[k]);
    ++n;
  }
  if (n == 0) return std::nullopt;
  const std::complex<double> z = sum / static_cast<double>(n);
  return swsim::math::LockinResult{std::abs(z),
                                   std::abs(z) > 0.0 ? std::arg(z) : 0.0, z};
}

void LockinDemodulator::restore(const Checkpoint& cp) {
  const std::size_t started = cp.windows + (cp.in_window > 0 ? 1 : 0);
  if (cp.windows > t_.size() || cp.in_window >= window_samples_ ||
      started > t_first_.size()) {
    throw std::invalid_argument(
        "LockinDemodulator: checkpoint is ahead of the record");
  }
  t_.resize(cp.windows);
  t_first_.resize(started);
  amplitude_.resize(cp.windows);
  phase_.resize(cp.windows);
  in_window_ = cp.in_window;
  c_ = cp.c;
  s_ = cp.s;
}

void LockinDemodulator::clear() {
  t_.clear();
  t_first_.clear();
  amplitude_.clear();
  phase_.clear();
  in_window_ = 0;
  c_ = 0.0;
  s_ = 0.0;
}

}  // namespace swsim::mag
