// Deterministic random number generation for the stochastic thermal field
// and for variability (edge roughness) injection.
//
// PCG32 (O'Neill, pcg-random.org, PCG-XSH-RR 64/32) — small, fast, and with
// far better statistical quality than LCGs of the same size. A fixed seed
// gives bit-identical runs across platforms, which the regression tests rely
// on.
//
// normal() is a 256-layer ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8),
// 2000) with exact tail and wedge rejection. Each attempt takes two
// next_u32() calls and draws the layer and the signed value from disjoint
// bits of them (Doornik 2005). No deviate is cached between calls, so the
// generator's state is the PCG state alone. The layer tables are shared,
// read-only, and built on the first normal() call (thread-safe).
#pragma once

#include <cstdint>

namespace swsim::math {

class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  // Uniform 32-bit value.
  std::uint32_t next_u32();

  // Uniform double in [0, 1).
  double next_double();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Standard normal (ziggurat).
  double normal();

  // Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // Uniform integer in [0, bound) without modulo bias.
  std::uint32_t bounded(std::uint32_t bound);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace swsim::math
