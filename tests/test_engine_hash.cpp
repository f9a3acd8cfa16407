// The cache-key contract: stable keys for identical configurations, a
// different key for ANY physics-relevant perturbation.
#include "engine/hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace swsim::engine {
namespace {

TEST(Fnv1a, DeterministicAndInputSensitive) {
  EXPECT_EQ(Fnv1a().u64(42).digest(), Fnv1a().u64(42).digest());
  EXPECT_NE(Fnv1a().u64(42).digest(), Fnv1a().u64(43).digest());
  EXPECT_NE(Fnv1a().u64(42).u64(7).digest(),
            Fnv1a().u64(7).u64(42).digest());  // order matters
}

TEST(Fnv1a, KnownVector) {
  // FNV-1a 64 of "a" is a published constant; locks the algorithm itself.
  EXPECT_EQ(Fnv1a().bytes("a", 1).digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a, StringsAreLengthPrefixed) {
  EXPECT_NE(Fnv1a().str("ab").str("c").digest(),
            Fnv1a().str("a").str("bc").digest());
}

TEST(Fnv1a, BitVectorsAreSizePrefixed) {
  EXPECT_NE(Fnv1a().bits({true, false}).digest(),
            Fnv1a().bits({true, false, false}).digest());
  EXPECT_NE(Fnv1a().bits({true, false, true}).digest(),
            Fnv1a().bits({true, false, false}).digest());
}

TEST(Fnv1a, CanonicalFloats) {
  EXPECT_EQ(Fnv1a().f64(0.0).digest(), Fnv1a().f64(-0.0).digest());
  const double nan1 = std::nan("1");
  const double nan2 = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Fnv1a().f64(nan1).digest(), Fnv1a().f64(nan2).digest());
  EXPECT_NE(Fnv1a().f64(1.0).digest(), Fnv1a().f64(std::nextafter(1.0, 2.0)).digest());
}

TEST(Fnv1a, CombineIsOrderDependent) {
  EXPECT_NE(combine(1, 2), combine(2, 1));
  EXPECT_EQ(combine(1, 2), combine(1, 2));
}

TEST(HashOf, TriangleParamsStableAndPerturbationSensitive) {
  const auto base = geom::TriangleGateParams::paper_maj3();
  const std::uint64_t key = hash_of(base);
  EXPECT_EQ(key, hash_of(base));  // same params -> same key, always

  auto p = base;
  p.wavelength *= 1.0 + 1e-12;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.width *= 1.0 + 1e-12;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.n_arm += 1;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.n_axis_half += 1;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.n_feed += 1;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.n_out += 0.5;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.arm_half_angle_deg += 1;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.has_third_input = !p.has_third_input;
  EXPECT_NE(key, hash_of(p));
  p = base;
  p.xor_out_distance *= 2;
  EXPECT_NE(key, hash_of(p));
}

TEST(HashOf, MaterialByPhysicsNotByName) {
  auto a = mag::Material::fecob();
  auto b = a;
  b.name = "renamed";
  EXPECT_EQ(hash_of(a), hash_of(b));  // same physics, same device
  b = a;
  b.ms *= 1.001;
  EXPECT_NE(hash_of(a), hash_of(b));
  b = a;
  b.aex *= 1.001;
  EXPECT_NE(hash_of(a), hash_of(b));
  b = a;
  b.alpha *= 1.001;
  EXPECT_NE(hash_of(a), hash_of(b));
  b = a;
  b.ku *= 1.001;
  EXPECT_NE(hash_of(a), hash_of(b));
}

TEST(HashOf, TriangleGateConfig) {
  core::TriangleGateConfig base;
  const std::uint64_t key = hash_of(base);
  EXPECT_EQ(key, hash_of(base));

  auto c = base;
  c.inverted = !c.inverted;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.threshold += 0.01;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.split = wavenet::SplitPolicy::kLossless;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.film_thickness *= 2;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.material = mag::Material::yig();
  EXPECT_NE(key, hash_of(c));
}

TEST(HashOf, MicromagConfigIncludesSeededPhysics) {
  core::MicromagGateConfig base;
  const std::uint64_t key = hash_of(base);
  EXPECT_EQ(key, hash_of(base));
  // The default config's key under "MicromagGateConfig/3", whose thermal
  // and roughness draws were Box-Muller: a spilled entry of that stream
  // must not be served under today's key.
  EXPECT_NE(key, 0xef0cc155a6781063ULL);

  auto c = base;
  c.cell_size *= 1.5;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.dt *= 0.5;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.temperature = 300.0;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.thermal_seed += 1;
  EXPECT_NE(key, hash_of(c));
  c = base;
  c.roughness = geom::RoughnessParams{1e-9, 5e-9, 3};
  const std::uint64_t rough_key = hash_of(c);
  EXPECT_NE(key, rough_key);
  c.roughness->seed += 1;
  EXPECT_NE(rough_key, hash_of(c));

  // Early stop changes how many settled windows the readout averages, so
  // it is part of the key, together with the policy that decides the stop.
  c = base;
  c.early_stop = true;
  const std::uint64_t early_key = hash_of(c);
  EXPECT_NE(key, early_key);
  c.convergence.windows += 1;
  EXPECT_NE(early_key, hash_of(c));
  // Without early stop the policy only labels the run: same key.
  c = base;
  c.convergence.windows += 1;
  EXPECT_EQ(key, hash_of(c));

  // The key holds the step the gate takes, not the dt ceiling: on 2 nm
  // cells both ceilings sit above the stability cap (0.143 ps) and give the
  // same solve, on 4 nm cells (cap 0.569 ps) they give different ones.
  auto ceiling = [&](double cell_nm, double dt_ps) {
    auto cc = base;
    cc.cell_size = math::nm(cell_nm);
    cc.dt = math::ps(dt_ps);
    return hash_of(cc);
  };
  EXPECT_EQ(ceiling(2, 0.5), ceiling(2, 0.3));
  EXPECT_NE(ceiling(4, 0.5), ceiling(4, 0.3));
  EXPECT_NE(ceiling(2, 0.5), ceiling(2, 0.1));
}

TEST(HashOf, VariabilityModel) {
  core::VariabilityModel base;
  base.sigma_phase = 0.1;
  base.sigma_amplitude = 0.05;
  const std::uint64_t key = hash_of(base);
  // This model's key under the unversioned tag, whose trials drew
  // Box-Muller normals.
  EXPECT_NE(key, 0x51e5885973326323ULL);
  auto m = base;
  m.seed += 1;
  EXPECT_NE(key, hash_of(m));
  m = base;
  m.sigma_phase += 0.01;
  EXPECT_NE(key, hash_of(m));
}

}  // namespace
}  // namespace swsim::engine
