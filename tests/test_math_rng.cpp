#include "math/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "math/constants.h"
#include "math/stats.h"

namespace swsim::math {
namespace {

// First in the file: when the binary runs whole, this is the process's
// first normal() call, so the threads race to build the ziggurat tables.
TEST(Pcg32, ConcurrentFirstUseMatchesSerial) {
  constexpr int kThreads = 8;
  constexpr int kDraws = 4096;
  std::vector<std::vector<double>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(100 + t);
      std::vector<double> xs(kDraws);
      start.arrive_and_wait();
      for (auto& x : xs) x = rng.normal();
      got[t] = std::move(xs);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    Pcg32 rng(100 + t);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(got[t][i], rng.normal()) << "thread " << t << " draw " << i;
    }
  }
}

TEST(Pcg32, Deterministic) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Pcg32, NextDoubleInRange) {
  Pcg32 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Pcg32, UniformRespectsBounds) {
  Pcg32 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Pcg32, UniformMeanIsCentered) {
  Pcg32 rng(11);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.uniform(0.0, 1.0);
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, 0.5, 0.01);
  EXPECT_NEAR(s.stddev, std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Pcg32, NormalMomentsMatch) {
  Pcg32 rng(13);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.normal();
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, 0.0, 0.02);
  EXPECT_NEAR(s.stddev, 1.0, 0.02);
}

TEST(Pcg32, NormalWithMeanAndSigma) {
  Pcg32 rng(17);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, 10.0, 0.05);
  EXPECT_NEAR(s.stddev, 2.0, 0.05);
}

TEST(Pcg32, NormalTailsExist) {
  // ~0.27% of samples should exceed 3 sigma; check we get some but not many.
  Pcg32 rng(19);
  int beyond = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (std::fabs(rng.normal()) > 3.0) ++beyond;
  }
  EXPECT_GT(beyond, 100);
  EXPECT_LT(beyond, 600);
}

TEST(Pcg32, NormalStreamIsPinned) {
  // The first draws of a fixed seed: any change to the normal stream (and
  // so to every seeded thermal, roughness and yield result) is deliberate.
  const double want[8] = {
      -0.21269311725924395, 1.7967023554911452,   -1.3252969553999536,
      -0.41316519092376197, -0.15843784090299187, -0.72180874357195235,
      -0.92986458420118367, -0.25259814270988462};
  Pcg32 rng(42);
  for (double w : want) EXPECT_EQ(rng.normal(), w);
}

TEST(Pcg32, NormalTailMassesMatchErfc) {
  // One-sided masses beyond 2, 3, the ziggurat's base edge R and 4 sigma,
  // each side on its own, within 5 binomial standard deviations.
  const double r = 3.6541528853610088;
  const double edges[] = {2.0, 3.0, r, 4.0};
  constexpr int kEdges = 4;
  constexpr long kN = 30000000;
  long above[kEdges] = {}, below[kEdges] = {};
  std::vector<double> excess;  // |x| - R beyond the base strip
  Pcg32 rng(37);
  for (long k = 0; k < kN; ++k) {
    const double v = rng.normal();
    for (int e = 0; e < kEdges; ++e) {
      if (v > edges[e]) ++above[e];
      if (v < -edges[e]) ++below[e];
    }
    if (std::fabs(v) > r) excess.push_back(std::fabs(v) - r);
  }
  auto upper = [](double t) { return 0.5 * std::erfc(t / std::sqrt(2.0)); };
  for (int e = 0; e < kEdges; ++e) {
    const double p = upper(edges[e]);
    const double mean = p * kN;
    const double tol = 5.0 * std::sqrt(kN * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(above[e]), mean, tol) << edges[e];
    EXPECT_NEAR(static_cast<double>(below[e]), mean, tol) << -edges[e];
  }
  // The tail's shape, not only its mass: the mean excess beyond R is
  // phi(R) / Q(R) - R (an unrejected exponential tail reads ~17% high).
  const Summary s = summarize(excess);
  const double phi = std::exp(-0.5 * r * r) / std::sqrt(2.0 * kPi);
  EXPECT_NEAR(s.mean, phi / upper(r) - r,
              5.0 * s.stddev / std::sqrt(static_cast<double>(excess.size())));
}

TEST(Pcg32, NormalChiSquareAcrossLayerEdges) {
  // The 256 layer edges of the ziggurat, from its defining recurrence:
  // x[1] = R, each layer of area V under exp(-x^2/2), down to 0.
  const double r = 3.6541528853610088;
  const double fr = std::exp(-0.5 * r * r);
  const double v =
      r * fr + std::sqrt(0.5 * kPi) *
                   std::erfc(r / std::sqrt(2.0));
  std::vector<double> edge = {r};
  while (edge.size() < 255) {
    const double x = edge.back();
    edge.push_back(std::sqrt(-2.0 * std::log(v / x + std::exp(-0.5 * x * x))));
  }
  // Bin cuts halfway between neighbouring edges, so every layer edge sits
  // inside a bin (the topmost bin straddles x[255] and runs to 0), mirrored
  // onto the negative side; the tails beyond R's bin are one bin each.
  std::vector<double> cuts = {0.0};
  for (std::size_t i = edge.size() - 1; i > 0; --i) {
    cuts.push_back(0.5 * (edge[i] + edge[i - 1]));
  }
  cuts.push_back(r + 0.5 * (r - cuts.back()));
  const std::size_t half = cuts.size();  // bins per side incl. the tail
  auto bin_of = [&](double x) {
    const double a = std::fabs(x);
    std::size_t b = 0;
    while (b + 1 < half && a >= cuts[b + 1]) ++b;
    return (x < 0.0 ? 0 : half) + b;
  };
  auto upper = [](double t) { return 0.5 * std::erfc(t / std::sqrt(2.0)); };

  constexpr long kN = 4000000;
  std::vector<long> count(2 * half, 0);
  Pcg32 rng(41);
  for (long k = 0; k < kN; ++k) ++count[bin_of(rng.normal())];
  double chi2 = 0.0;
  for (std::size_t b = 0; b < half; ++b) {
    const double hi = b + 1 < half ? upper(cuts[b + 1]) : 0.0;
    const double p = upper(cuts[b]) - hi;
    for (long c : {count[b], count[half + b]}) {
      const double d = static_cast<double>(c) - p * kN;
      chi2 += d * d / (p * kN);
    }
  }
  const double dof = 2.0 * static_cast<double>(half) - 1.0;
  EXPECT_LT(chi2, dof + 5.0 * std::sqrt(2.0 * dof));
  EXPECT_GT(chi2, dof - 5.0 * std::sqrt(2.0 * dof));
}

TEST(Pcg32, BoundedStaysInBound) {
  Pcg32 rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(7), 7u);
  }
}

TEST(Pcg32, BoundedZeroReturnsZero) {
  Pcg32 rng(29);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Pcg32, BoundedIsRoughlyUniform) {
  Pcg32 rng(31);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.bounded(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 5.0, n * 0.01);
  }
}

}  // namespace
}  // namespace swsim::math
