#include "geom/roughness.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/shape.h"
#include "math/constants.h"

namespace swsim::geom {
namespace {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::nm;

Mask straight_guide() {
  const Grid g(60, 20, 1, nm(5), nm(5), nm(1));
  const Rect guide(nm(0), nm(30), nm(300), nm(70));
  return rasterize(g, guide);
}

TEST(Roughness, ZeroAmplitudeIsIdentity) {
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = 0.0;
  EXPECT_EQ(apply_edge_roughness(m, p), m);
}

TEST(Roughness, PerturbsOnlyNearBoundary) {
  const Mask m = straight_guide();
  const Grid& g = m.grid();
  // A cell is deep when every cell within 2 of it (Chebyshev) lies inside
  // the box and shares its state: >= 2 cells from every boundary, the box
  // edge included (material touching the box edge is boundary too).
  auto deep = [&](std::size_t x, std::size_t y) {
    for (long dy = -2; dy <= 2; ++dy) {
      for (long dx = -2; dx <= 2; ++dx) {
        const long jx = static_cast<long>(x) + dx;
        const long jy = static_cast<long>(y) + dy;
        if (jx < 0 || jy < 0 || jx >= static_cast<long>(g.nx()) ||
            jy >= static_cast<long>(g.ny())) {
          return false;
        }
        if (m.at(static_cast<std::size_t>(jx), static_cast<std::size_t>(jy)) !=
            m.at(x, y)) {
          return false;
        }
      }
    }
    return true;
  };
  std::size_t deep_in = 0, deep_out = 0;
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = 0; x < g.nx(); ++x) {
      if (deep(x, y)) ++(m.at(x, y) ? deep_in : deep_out);
    }
  }
  ASSERT_GT(deep_in, 0u);
  ASSERT_GT(deep_out, 0u);

  // Over many realizations, not one seed's luck: deep-interior cells stay
  // material and deep-outside cells stay empty.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RoughnessParams p;
    p.amplitude = nm(8);
    p.correlation_length = nm(20);
    p.seed = seed;
    const Mask rough = apply_edge_roughness(m, p);
    EXPECT_NE(rough, m) << "seed " << seed;
    for (std::size_t y = 0; y < g.ny(); ++y) {
      for (std::size_t x = 0; x < g.nx(); ++x) {
        if (!deep(x, y)) continue;
        EXPECT_EQ(rough.at(x, y), m.at(x, y))
            << "seed " << seed << " cell " << x << "," << y;
      }
    }
  }
}

TEST(Roughness, DeterministicInSeed) {
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = nm(6);
  p.correlation_length = nm(15);
  p.seed = 42;
  EXPECT_EQ(apply_edge_roughness(m, p), apply_edge_roughness(m, p));
}

TEST(Roughness, DifferentSeedsDiffer) {
  const Mask m = straight_guide();
  RoughnessParams a, b;
  a.amplitude = b.amplitude = nm(6);
  a.correlation_length = b.correlation_length = nm(15);
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(apply_edge_roughness(m, a), apply_edge_roughness(m, b));
}

TEST(Roughness, PreservesCellCountApproximately) {
  // Roughness adds and removes edge cells but should not systematically
  // grow or shrink the structure by more than the edge-cell population.
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = nm(6);
  p.correlation_length = nm(25);
  p.seed = 7;
  const Mask rough = apply_edge_roughness(m, p);
  const double rel = std::fabs(static_cast<double>(rough.count()) -
                               static_cast<double>(m.count())) /
                     static_cast<double>(m.count());
  EXPECT_LT(rel, 0.3);
}

TEST(Trapezoid, ReducesWidth) {
  const double w = trapezoid_effective_width(nm(50), nm(10), 0.3);
  EXPECT_LT(w, nm(50));
  EXPECT_GT(w, 0.0);
}

TEST(Trapezoid, VerticalSidewallIsExact) {
  EXPECT_DOUBLE_EQ(trapezoid_effective_width(nm(50), nm(1), 0.0), nm(50));
}

TEST(Trapezoid, SymmetricInAngleSign) {
  EXPECT_DOUBLE_EQ(trapezoid_effective_width(nm(50), nm(5), 0.2),
                   trapezoid_effective_width(nm(50), nm(5), -0.2));
}

TEST(Trapezoid, ThrowsWhenWidthConsumed) {
  EXPECT_THROW(trapezoid_effective_width(nm(10), nm(50), 0.5),
               std::invalid_argument);
  EXPECT_THROW(trapezoid_effective_width(0.0, nm(1), 0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace swsim::geom
