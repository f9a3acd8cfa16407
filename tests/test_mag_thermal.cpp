#include "mag/thermal_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "mag/llg.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "math/stats.h"

namespace swsim::mag {
namespace {

using namespace swsim::math;

Grid tiny() { return Grid(4, 4, 1, 5e-9, 5e-9, 1e-9); }

TEST(ThermalField, RejectsNegativeTemperature) {
  EXPECT_THROW(ThermalField(-1.0), std::invalid_argument);
}

TEST(ThermalField, ZeroTemperatureAddsNothing) {
  const System sys(tiny(), Material::fecob());
  ThermalField th(0.0);
  th.advance_step(1e-13);
  VectorField h(sys.grid());
  th.accumulate(sys, sys.uniform_magnetization({0, 0, 1}), 0.0, h);
  for (const Vec3& v : h) EXPECT_EQ(v, (Vec3{}));
}

TEST(ThermalField, NoFieldBeforeFirstStep) {
  // Until advance_step provides a dt, sigma is undefined and the term must
  // stay silent instead of injecting unscaled noise.
  const System sys(tiny(), Material::fecob());
  ThermalField th(300.0);
  VectorField h(sys.grid());
  th.accumulate(sys, sys.uniform_magnetization({0, 0, 1}), 0.0, h);
  for (const Vec3& v : h) EXPECT_EQ(v, (Vec3{}));
}

TEST(ThermalField, SigmaScalesAsSqrtTOverDt) {
  const System sys(tiny(), Material::fecob());
  ThermalField t300(300.0);
  ThermalField t75(75.0);
  const double dt = 1e-13;
  EXPECT_NEAR(t300.sigma(sys, dt) / t75.sigma(sys, dt), 2.0, 1e-12);
  EXPECT_NEAR(t300.sigma(sys, dt) / t300.sigma(sys, 4.0 * dt), 2.0, 1e-12);
}

TEST(ThermalField, SigmaMatchesBrownFormula) {
  const System sys(tiny(), Material::fecob());
  ThermalField th(300.0);
  const double dt = 1e-13;
  const Material& m = sys.material();
  const double expected =
      std::sqrt(2.0 * m.alpha * kBoltzmann * 300.0 /
                (kMu0 * kGamma * m.ms * sys.grid().cell_volume() * dt));
  EXPECT_NEAR(th.sigma(sys, dt), expected, expected * 1e-12);
}

// Records the field the terms before it accumulated, once per stage.
class FieldRecorder final : public FieldTerm {
 public:
  explicit FieldRecorder(std::vector<VectorField>& out) : out_(out) {}
  std::string name() const override { return "recorder"; }
  void accumulate(const System&, const VectorField&, double,
                  VectorField& h) override {
    out_.push_back(h);
  }

 private:
  std::vector<VectorField>& out_;
};

TEST(ThermalField, NoiseStatisticsMatchSigma) {
  // The noise as each stepper sees it: one realization per step, the same
  // in every stage of that step, with zero mean and standard deviation
  // sigma(dt) across steps.
  for (const auto& [kind, stages] :
       {std::pair{StepperKind::kHeun, 2}, std::pair{StepperKind::kRk4, 4}}) {
    SCOPED_TRACE(kind == StepperKind::kHeun ? "Heun" : "RK4");
    const System sys(tiny(), Material::fecob());
    const double dt = 1e-13;
    std::vector<VectorField> fields;
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<ThermalField>(300.0, 11));
    terms.push_back(std::make_unique<FieldRecorder>(fields));
    Stepper stepper(kind, dt);
    VectorField m = sys.uniform_magnetization({0, 0, 1});
    double t = 0.0;
    std::vector<double> samples;
    for (int step = 0; step < 500; ++step) {
      fields.clear();
      t += stepper.step(sys, terms, m, t);
      ASSERT_EQ(fields.size(), static_cast<std::size_t>(stages));
      for (const VectorField& f : fields) {
        ASSERT_EQ(f.data(), fields.front().data()) << "step " << step;
      }
      for (const Vec3& v : fields.front()) {
        samples.push_back(v.x);
        samples.push_back(v.y);
        samples.push_back(v.z);
      }
    }
    const Summary s = summarize(samples);
    const double sigma =
        static_cast<const ThermalField&>(*terms.front()).sigma(sys, dt);
    EXPECT_NEAR(s.mean, 0.0, sigma * 0.05);
    EXPECT_NEAR(s.stddev, sigma, sigma * 0.05);
  }
}

TEST(ThermalField, NoiseHeldWithinStepRedrawnAcrossSteps) {
  const System sys(tiny(), Material::fecob());
  ThermalField th(300.0, 3);
  const auto m = sys.uniform_magnetization({0, 0, 1});
  th.advance_step(1e-13);
  VectorField h1(sys.grid()), h2(sys.grid()), h3(sys.grid());
  th.accumulate(sys, m, 0.0, h1);
  th.accumulate(sys, m, 0.0, h2);  // same step: identical realization
  EXPECT_EQ(h1[0], h2[0]);
  th.advance_step(1e-13);
  th.accumulate(sys, m, 0.0, h3);  // new step: fresh draw
  EXPECT_NE(h1[0], h3[0]);
}

TEST(ThermalField, EnergyIsNaN) {
  const System sys(tiny(), Material::fecob());
  ThermalField th(300.0);
  EXPECT_TRUE(std::isnan(th.energy(sys, sys.uniform_magnetization({0, 0, 1}))));
}

TEST(ThermalField, EquilibriumTiltGrowsWithTemperature) {
  // Integrate a strongly damped macrospin in a field at two temperatures;
  // the average transverse fluctuation must grow with T, on either
  // fixed-step stepper.
  auto fluctuation = [&](StepperKind kind, double temperature) {
    Material mat = Material::fecob();
    mat.alpha = 0.1;
    const Grid g(1, 1, 1, 5e-9, 5e-9, 5e-9);
    const System sys(g, mat);
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<UniformZeemanField>(Vec3{0, 0, 8e5}));
    terms.push_back(std::make_unique<ThermalField>(temperature, 17));
    VectorField m(g);
    m[0] = Vec3{0, 0, 1};
    Stepper stepper(kind, 5e-14);
    double t = 0.0;
    double acc = 0.0;
    std::size_t n = 0;
    for (int i = 0; i < 4000; ++i) {
      t += stepper.step(sys, terms, m, t);
      if (i > 500) {
        acc += m[0].x * m[0].x + m[0].y * m[0].y;
        ++n;
      }
    }
    return acc / static_cast<double>(n);
  };
  for (const StepperKind kind : {StepperKind::kHeun, StepperKind::kRk4}) {
    SCOPED_TRACE(kind == StepperKind::kHeun ? "Heun" : "RK4");
    const double cold = fluctuation(kind, 30.0);
    const double hot = fluctuation(kind, 300.0);
    EXPECT_GT(hot, 3.0 * cold);
    EXPECT_LT(hot, 1e-2);  // still a small perturbation
  }
}

}  // namespace
}  // namespace swsim::mag
