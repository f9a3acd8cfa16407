#include "engine/hash.h"

#include <bit>
#include <cmath>
#include <exception>

namespace swsim::engine {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

Fnv1a& Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= static_cast<std::uint64_t>(p[i]);
    h_ *= kFnvPrime;
  }
  return *this;
}

Fnv1a& Fnv1a::u64(std::uint64_t v) {
  // Explicit little-endian byte order so the stream does not depend on the
  // host's representation.
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffu);
  }
  return bytes(b, sizeof b);
}

Fnv1a& Fnv1a::i64(std::int64_t v) {
  return u64(static_cast<std::uint64_t>(v));
}

Fnv1a& Fnv1a::f64(double v) {
  if (v == 0.0) v = 0.0;  // folds -0.0 onto +0.0
  if (std::isnan(v)) {
    return u64(0x7ff8000000000000ULL);  // canonical quiet NaN
  }
  return u64(std::bit_cast<std::uint64_t>(v));
}

Fnv1a& Fnv1a::boolean(bool b) {
  const unsigned char byte = b ? 1 : 0;
  return bytes(&byte, 1);
}

Fnv1a& Fnv1a::str(const std::string& s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

Fnv1a& Fnv1a::bits(const std::vector<bool>& v) {
  u64(v.size());
  for (const bool b : v) boolean(b);
  return *this;
}

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  return Fnv1a().u64(a).u64(b).digest();
}

std::uint64_t hash_of(const geom::TriangleGateParams& p) {
  return Fnv1a()
      .str("TriangleGateParams")
      .f64(p.wavelength)
      .f64(p.width)
      .f64(p.n_arm)
      .f64(p.n_axis_half)
      .f64(p.n_feed)
      .f64(p.n_out)
      .f64(p.arm_half_angle_deg)
      .boolean(p.has_third_input)
      .f64(p.xor_out_distance)
      .digest();
}

std::uint64_t hash_of(const mag::Material& m) {
  // The name participates only through the physics it implies; two
  // materials with identical parameters are the same device.
  return Fnv1a()
      .str("Material")
      .f64(m.ms)
      .f64(m.aex)
      .f64(m.alpha)
      .f64(m.ku)
      .digest();
}

std::uint64_t hash_of(const core::TriangleGateConfig& c) {
  return Fnv1a()
      .str("TriangleGateConfig")
      .u64(hash_of(c.params))
      .u64(hash_of(c.material))
      .f64(c.film_thickness)
      .i64(static_cast<std::int64_t>(c.split))
      .boolean(c.inverted)
      .f64(c.threshold)
      .digest();
}

namespace {

// The RK4 step a gate of this config solves at: dt is only a ceiling, and
// every ceiling above the mesh's stability cap gives the same bits. A
// config the gate rejects fails when its job builds the gate; its key
// only has to be deterministic, so it hashes the ceiling.
double step_taken(const core::MicromagGateConfig& c) {
  try {
    return core::MicromagTriangleGate(c).dt();
  } catch (const std::exception&) {
    return c.dt;
  }
}

}  // namespace

std::uint64_t hash_of(const core::MicromagGateConfig& c) {
  Fnv1a h;
  // "/4": seeded normal draws (thermal noise, edge roughness) come from the
  // ziggurat; entries spilled under "/3" hold Box-Muller draws, "/2" the
  // settled-window readout at raw dt, and must never be served again.
  h.str("MicromagGateConfig/4")
      .u64(hash_of(c.params))
      .u64(hash_of(c.material))
      .f64(c.film_thickness)
      .f64(c.cell_size)
      .f64(c.drive_amplitude)
      .f64(c.antenna_extent_factor)
      .f64(c.duration)
      .f64(step_taken(c))
      .f64(c.temperature)
      .u64(c.thermal_seed)
      .f64(c.margin)
      .f64(c.absorber_wavelengths)
      .f64(c.absorber_alpha);
  // The watchdog is part of the key: a divergence recovered by step
  // halving legitimately yields different bits than an unguarded solve.
  h.u64(c.watchdog.cadence)
      .f64(c.watchdog.norm_drift_tol)
      .f64(c.watchdog.energy_growth_factor)
      .u64(c.watchdog.max_step_halvings);
  h.boolean(c.roughness.has_value());
  if (c.roughness) {
    h.f64(c.roughness->amplitude)
        .f64(c.roughness->correlation_length)
        .u64(c.roughness->seed);
  }
  // Early stop sets how many settled windows the readout averages, so the
  // bits depend on it and on the policy deciding the stop. Without it the
  // policy only labels telemetry and is not hashed, keeping the key stable.
  if (c.early_stop) {
    h.str("early_stop")
        .f64(c.convergence.rel_tolerance)
        .f64(c.convergence.abs_floor)
        .f64(c.convergence.phase_tolerance)
        .i64(c.convergence.windows)
        .f64(c.convergence.min_time);
  }
  return h.digest();
}

std::uint64_t hash_of(const core::VariabilityModel& m) {
  // "/2": the transducer disturbances come from the ziggurat normal; trials
  // spilled under the unversioned tag hold Box-Muller draws.
  return Fnv1a()
      .str("VariabilityModel/2")
      .f64(m.sigma_phase)
      .f64(m.sigma_amplitude)
      .u64(m.seed)
      .digest();
}

}  // namespace swsim::engine
