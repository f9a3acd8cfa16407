#include "math/rng.h"

#include <cmath>

#include "math/constants.h"

namespace swsim::math {

namespace {

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang, J. Stat.
// Softw. 5(8), 2000), on the unnormalized density f(x) = exp(-x^2 / 2).
// Layer 0 is the base strip [0, x[0]) x [0, f(R)) — its part beyond R
// stands for the tail — and layer i >= 1 spans heights [f(x[i]),
// f(x[i+1])); every layer has area V. Built once, on first use.
constexpr int kLayers = 256;
constexpr double kR = 3.6541528853610088;  // right edge of the base strip

struct Ziggurat {
  double x[kLayers + 1];  // layer edges, x[0] = V / f(R) > x[1] = R > ... > 0
  double ratio[kLayers];  // x[i+1] / x[i]: fraction of layer i under f
  double f[kLayers + 1];  // f(x[i])

  Ziggurat() {
    const double fr = std::exp(-0.5 * kR * kR);
    // Layer area: the rectangle under f(R) up to R plus the tail beyond.
    const double v =
        kR * fr + std::sqrt(0.5 * kPi) * std::erfc(kR / std::sqrt(2.0));
    x[0] = v / fr;
    x[1] = kR;
    for (int i = 2; i < kLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(v / x[i - 1] +
                                       std::exp(-0.5 * x[i - 1] * x[i - 1])));
    }
    x[kLayers] = 0.0;
    for (int i = 0; i <= kLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
    for (int i = 0; i < kLayers; ++i) ratio[i] = x[i + 1] / x[i];
  }
};

const Ziggurat& ziggurat() {
  static const Ziggurat z;
  return z;
}

}  // namespace

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Pcg32::next_double() {
  // 32 random bits into [0, 1); resolution 2^-32 is ample for noise fields.
  return static_cast<double>(next_u32()) * (1.0 / 4294967296.0);
}

double Pcg32::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Pcg32::normal() {
  const Ziggurat& z = ziggurat();
  for (;;) {
    const std::uint64_t hi = next_u32();
    const std::uint64_t bits = (hi << 32) | next_u32();
    // Layer from the low 8 bits, signed value u in [-1, 1) from the top 53
    // (sign + 52): disjoint bits, so the layer does not leak into the
    // value (Doornik's fix for RNOR's index/value correlation).
    const int i = static_cast<int>(bits & 0xFFu);
    const double u =
        static_cast<double>(bits >> 11) * (1.0 / 4503599627370496.0) - 1.0;
    // Inside the layer's core rectangle: under f whatever the height.
    if (std::fabs(u) < z.ratio[i]) return u * z.x[i];
    if (i == 0) {
      // Base strip beyond R: exact exponential-rejection tail (Marsaglia
      // 1964), uniforms in (0, 1] so the logs stay finite.
      double t = 0.0;
      double e = 0.0;
      do {
        t = -std::log(1.0 - next_double()) / kR;
        e = -std::log(1.0 - next_double());
      } while (2.0 * e < t * t);
      return u < 0.0 ? -(kR + t) : kR + t;
    }
    // Wedge: a uniform height in the layer, kept if it lies under f.
    const double xv = u * z.x[i];
    const double y = z.f[i] + next_double() * (z.f[i + 1] - z.f[i]);
    if (y < std::exp(-0.5 * xv * xv)) return xv;
  }
}

std::uint32_t Pcg32::bounded(std::uint32_t bound) {
  if (bound == 0) return 0;
  const std::uint32_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace swsim::math
