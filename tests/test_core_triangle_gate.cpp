// The paper's core claim, on the analytical backend: triangle FO2 MAJ3 and
// X(N)OR gates evaluate correctly for every input pattern, with identical
// outputs (fan-out of 2), and the design rules behave as stated.
#include "core/triangle_gate.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include <cmath>

#include "core/derived_gates.h"
#include "core/logic.h"
#include "core/validator.h"
#include "math/constants.h"

namespace swsim::core {
namespace {

using swsim::math::kPi;
using swsim::math::nm;

TEST(TriangleMajGate, PaperDeviceTruthTable) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  const auto report = validate_gate(gate);
  EXPECT_TRUE(report.all_pass) << format_report(report);
}

TEST(TriangleMajGate, FanOutOutputsIdentical) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  const auto report = validate_gate(gate);
  // The bowtie splits one wave symmetrically: O1 == O2 exactly.
  EXPECT_LT(report.max_output_asymmetry, 1e-9);
}

TEST(TriangleMajGate, UnanimousInputsGiveFullAmplitude) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  const auto all0 = gate.evaluate({false, false, false});
  const auto all1 = gate.evaluate({true, true, true});
  EXPECT_NEAR(all0.normalized_o1, 1.0, 1e-9);
  EXPECT_NEAR(all1.normalized_o1, 1.0, 1e-9);
}

TEST(TriangleMajGate, MixedInputsGiveReducedAmplitude) {
  // Phase detection: the mixed rows of Table I have much lower normalized
  // magnetization (paper: 0.083 - 0.164 in energy units) because two of the
  // three waves cancel.
  TriangleMajGate gate = TriangleMajGate::paper_device();
  for (const auto& p : all_input_patterns(3)) {
    const int ones = static_cast<int>(p[0]) + p[1] + p[2];
    const auto out = gate.evaluate(p);
    if (ones == 0 || ones == 3) continue;
    EXPECT_LT(out.normalized_o1, 0.6) << format_report(validate_gate(gate));
    EXPECT_GT(out.normalized_o1, 0.05);
  }
}

TEST(TriangleMajGate, MinorityInputDeterminesAmplitudeClass) {
  // Minority = I1 and minority = I2 give identical amplitudes (equal arms);
  // minority = I3 differs (different path / attenuation).
  TriangleMajGate gate = TriangleMajGate::paper_device();
  const double m1 = gate.evaluate({true, false, false}).normalized_o1;
  const double m2 = gate.evaluate({false, true, false}).normalized_o1;
  const double m3 = gate.evaluate({false, false, true}).normalized_o1;
  EXPECT_NEAR(m1, m2, 1e-9);
  EXPECT_GT(std::fabs(m3 - m1), 1e-4);
}

TEST(TriangleMajGate, ComplementSymmetry) {
  // Flipping all inputs flips the output but keeps the amplitude.
  TriangleMajGate gate = TriangleMajGate::paper_device();
  for (const auto& p : all_input_patterns(3)) {
    const std::vector<bool> q{!p[0], !p[1], !p[2]};
    const auto a = gate.evaluate(p);
    const auto b = gate.evaluate(q);
    EXPECT_NE(a.o1.logic, b.o1.logic);
    EXPECT_NEAR(a.normalized_o1, b.normalized_o1, 1e-9);
  }
}

TEST(TriangleMajGate, InvertedOutputComputesMinority) {
  TriangleGateConfig cfg;
  cfg.params = geom::TriangleGateParams::paper_maj3();
  cfg.inverted = true;
  TriangleMajGate gate(cfg);
  const auto report = validate_gate(gate);
  EXPECT_TRUE(report.all_pass) << format_report(report);
  EXPECT_TRUE(gate.evaluate({false, false, false}).o1.logic);   // NOT(MAJ)=1
  EXPECT_FALSE(gate.evaluate({true, true, true}).o1.logic);
}

TEST(TriangleMajGate, HalfWavelengthDesignRuleBreaksGate) {
  // d1 = (n + 1/2) lambda on the arms makes same-phase inputs interfere
  // destructively — Sec. III-A's "opposite behaviour".
  TriangleGateConfig cfg;
  cfg.params = geom::TriangleGateParams::paper_maj3();
  cfg.params.n_arm += 0.5;
  TriangleMajGate gate(cfg);
  // With the arms off by lambda/2, I1 and I2 arrive inverted relative to
  // I3: the structure no longer computes MAJ3 and the validator catches it.
  const auto report = validate_gate(gate);
  EXPECT_FALSE(report.all_pass);
}

TEST(TriangleMajGate, RejectsXorParams) {
  TriangleGateConfig cfg;
  cfg.params = geom::TriangleGateParams::paper_xor();
  EXPECT_THROW(TriangleMajGate{cfg}, std::invalid_argument);
}

TEST(TriangleMajGate, RejectsWrongInputCount) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  EXPECT_THROW(gate.evaluate({true, false}), std::invalid_argument);
}

TEST(TriangleMajGate, ExcitationCellCount) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  EXPECT_EQ(gate.excitation_cells(), 3);  // Table III: 3 + 2 = 5 cells
}

TEST(TriangleXorGate, PaperDeviceTruthTable) {
  TriangleXorGate gate = TriangleXorGate::paper_device();
  const auto report = validate_gate(gate);
  EXPECT_TRUE(report.all_pass) << format_report(report);
}

TEST(TriangleXorGate, TableIIAmplitudePattern) {
  TriangleXorGate gate = TriangleXorGate::paper_device();
  // {0,0} and {1,1}: normalized ~1; {0,1} and {1,0}: ~0 (Table II).
  EXPECT_NEAR(gate.evaluate({false, false}).normalized_o1, 1.0, 1e-9);
  EXPECT_NEAR(gate.evaluate({true, true}).normalized_o1, 1.0, 1e-9);
  EXPECT_NEAR(gate.evaluate({true, false}).normalized_o1, 0.0, 1e-9);
  EXPECT_NEAR(gate.evaluate({false, true}).normalized_o1, 0.0, 1e-9);
}

TEST(TriangleXorGate, XnorInvertsDetection) {
  TriangleXorGate gate = TriangleXorGate::paper_device(/*xnor=*/true);
  const auto report = validate_gate(gate);
  EXPECT_TRUE(report.all_pass) << format_report(report);
  EXPECT_TRUE(gate.evaluate({false, false}).o1.logic);
  EXPECT_FALSE(gate.evaluate({true, false}).o1.logic);
}

TEST(TriangleXorGate, RejectsMajParams) {
  TriangleGateConfig cfg;
  cfg.params = geom::TriangleGateParams::paper_maj3();
  EXPECT_THROW(TriangleXorGate{cfg}, std::invalid_argument);
}

TEST(TriangleXorGate, ExcitationCellCount) {
  TriangleXorGate gate = TriangleXorGate::paper_device();
  EXPECT_EQ(gate.excitation_cells(), 2);  // Table III: 2 + 2 = 4 cells
}

TEST(TriangleGateBase, ReferenceAmplitudePositive) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  EXPECT_GT(gate.reference_amplitude(), 0.0);
}

TEST(TriangleGateBase, SolvePhasorsChecksArity) {
  TriangleMajGate gate = TriangleMajGate::paper_device();
  EXPECT_THROW(gate.solve_phasors({0.0, 0.0}), std::invalid_argument);
}

TEST(TriangleGateBase, PhaseErrorToleranceMaj) {
  // The gate must survive moderate input phase errors (transducer
  // imperfections): sweep a disturbance on I1 and find the failure point.
  TriangleMajGate gate = TriangleMajGate::paper_device();
  const wavenet::PhaseDetector det;
  double failure_phase = kPi;
  for (double err = 0.0; err < kPi; err += 0.05) {
    const auto [p1, p2] = gate.solve_phasors({err, 0.0, 0.0});
    if (det.detect(p1).logic != false) {
      failure_phase = err;
      break;
    }
  }
  // With the other two inputs at logic 0, flipping I1 must require at
  // least ~pi/2 of phase error.
  EXPECT_GT(failure_phase, kPi / 2.0 - 0.1);
}

TEST(ControlledMajGate, AllFourFunctions) {
  for (auto fn : {TwoInputFunction::kAnd, TwoInputFunction::kOr,
                  TwoInputFunction::kNand, TwoInputFunction::kNor}) {
    ControlledMajGate gate = ControlledMajGate::paper_device(fn);
    const auto report = validate_gate(gate);
    EXPECT_TRUE(report.all_pass)
        << to_string(fn) << "\n" << format_report(report);
  }
}

TEST(ControlledMajGate, ControlValues) {
  EXPECT_FALSE(
      ControlledMajGate::paper_device(TwoInputFunction::kAnd).control_value());
  EXPECT_TRUE(
      ControlledMajGate::paper_device(TwoInputFunction::kOr).control_value());
  EXPECT_FALSE(
      ControlledMajGate::paper_device(TwoInputFunction::kNand).control_value());
  EXPECT_TRUE(
      ControlledMajGate::paper_device(TwoInputFunction::kNor).control_value());
}

TEST(ControlledMajGate, StillCostsThreeExcitations) {
  // The control constant is a driven transducer: no energy saving vs MAJ.
  ControlledMajGate gate = ControlledMajGate::paper_device(TwoInputFunction::kAnd);
  EXPECT_EQ(gate.excitation_cells(), 3);
}

TEST(ControlledMajGate, RejectsWrongArity) {
  ControlledMajGate gate = ControlledMajGate::paper_device(TwoInputFunction::kAnd);
  EXPECT_THROW(gate.evaluate({true, false, true}), std::invalid_argument);
}

// Property sweep: the MAJ3 truth table holds across geometry multiples,
// wavelengths and split policies — the design rules, not a lucky tuning.
struct GateSweepParam {
  double n_arm;
  double n_axis_half;
  double n_feed;
  double lambda_nm;
  wavenet::SplitPolicy split;
};

// Prints a parameter as "arm6_axis8_feed4_lambda55_unitary". ctest names
// each case by this printout (gtest_discover_tests replaces the case index
// with it); the default printer dumps the struct's bytes, padding
// included, and those names changed from build to build.
void PrintTo(const GateSweepParam& p, std::ostream* os) {
  const auto n = [](double v) { return std::to_string(static_cast<long>(v)); };
  *os << "arm" << n(p.n_arm) << "_axis" << n(p.n_axis_half) << "_feed"
      << n(p.n_feed) << "_lambda" << n(p.lambda_nm) << "_"
      << (p.split == wavenet::SplitPolicy::kUnitary ? "unitary" : "lossless");
}

class TriangleGateSweep : public ::testing::TestWithParam<GateSweepParam> {};

TEST_P(TriangleGateSweep, MajTruthTableHolds) {
  const auto& p = GetParam();
  TriangleGateConfig cfg;
  cfg.params = geom::TriangleGateParams::paper_maj3();
  cfg.params.wavelength = nm(p.lambda_nm);
  cfg.params.width = nm(p.lambda_nm * 0.4);
  cfg.params.n_arm = p.n_arm;
  cfg.params.n_axis_half = p.n_axis_half;
  cfg.params.n_feed = p.n_feed;
  cfg.split = p.split;
  TriangleMajGate gate(cfg);
  const auto report = validate_gate(gate);
  EXPECT_TRUE(report.all_pass) << format_report(report);
  EXPECT_LT(report.max_output_asymmetry, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TriangleGateSweep,
    ::testing::Values(
        GateSweepParam{6, 8, 4, 55, wavenet::SplitPolicy::kUnitary},
        GateSweepParam{6, 8, 4, 55, wavenet::SplitPolicy::kLossless},
        GateSweepParam{2, 1, 1, 55, wavenet::SplitPolicy::kUnitary},
        GateSweepParam{12, 4, 2, 55, wavenet::SplitPolicy::kUnitary},
        GateSweepParam{6, 8, 4, 30, wavenet::SplitPolicy::kUnitary},
        // At lambda = 125 nm the paper-scale multiples give ~3.4 um arm
        // paths (comparable to L_att) and the attenuation imbalance kills
        // the margins: a compact device is required at long wavelengths.
        GateSweepParam{3, 2, 1, 125, wavenet::SplitPolicy::kUnitary},
        GateSweepParam{3, 2, 9, 80, wavenet::SplitPolicy::kUnitary}));

}  // namespace
}  // namespace swsim::core
