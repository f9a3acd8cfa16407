// Readout convergence: the LLG gate's readout — the mean phasor over the
// detector demodulator windows that start after the settle time — must be
// a property of the device, not of the integrator step or of where the
// solve stopped. Three gates of the paper's reduced MAJ3/XOR at the
// default 4 nm cells are solved at dt = 0.125, 0.25 and 0.5 ps, and MAJ3
// once more under early stop; the normalized O1/O2 the paper's Tables I/II
// report must agree within kTol across all of them. The 300 K XOR (thermal
// seed 7) is solved at the default step and at half of it: its whole
// truth table must read right at both.
//
// Registered as one ctest (not per TEST): the fixture solves every
// configuration once, in parallel, and the TESTs below only compare.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "core/micromag_gate.h"
#include "math/constants.h"

namespace swsim::core {
namespace {

using swsim::math::nm;
using swsim::math::ps;

constexpr double kTol = 0.01;

// Rows are named like the truth tables print them: {I3 I2 I1} or {I2 I1}.
std::vector<bool> inputs_of(const std::string& row) {
  std::vector<bool> in(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    in[i] = row[row.size() - 1 - i] == '1';
  }
  return in;
}

struct Normalized {
  double o1 = 0.0, o2 = 0.0;
};
using Table = std::map<std::string, Normalized>;

MicromagGateConfig config(bool maj3, double dt) {
  MicromagGateConfig cfg;
  cfg.params = maj3 ? geom::TriangleGateParams::reduced_maj3(nm(50), nm(20))
                    : geom::TriangleGateParams::reduced_xor(nm(50), nm(20));
  cfg.dt = dt;
  return cfg;
}

Table solve(bool maj3, double dt, bool early_stop,
            const std::vector<std::string>& rows) {
  MicromagGateConfig cfg = config(maj3, dt);
  cfg.early_stop = early_stop;
  MicromagTriangleGate gate(cfg);
  Table t;
  for (const std::string& row : rows) {
    const FanoutOutputs out = gate.evaluate(inputs_of(row));
    t[row] = {out.normalized_o1, out.normalized_o2};
  }
  return t;
}

// Rows of the 300 K XOR at step `dt` whose two outputs both read the
// reference logic.
int thermal_xor_rows_right(double dt) {
  MicromagGateConfig cfg = config(false, dt);
  cfg.temperature = 300.0;
  cfg.thermal_seed = 7;
  MicromagTriangleGate gate(cfg);
  int right = 0;
  for (const std::string row : {"00", "01", "10", "11"}) {
    const std::vector<bool> in = inputs_of(row);
    const FanoutOutputs out = gate.evaluate(in);
    const bool want = gate.reference(in);
    right += out.o1.logic == want && out.o2.logic == want;
  }
  return right;
}

const std::vector<double> kDts = {ps(0.125), ps(0.25), ps(0.5)};
const double kDefaultDt = MicromagGateConfig{}.dt;
const std::vector<std::string> kMajRows = {"000", "100", "001"};
const std::vector<std::string> kXorRows = {"00", "01"};

class ReadoutConvergence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<std::future<Table>> maj, xr;
    for (const double dt : kDts) {
      maj.push_back(std::async(std::launch::async, solve, true, dt, false,
                               kMajRows));
      xr.push_back(std::async(std::launch::async, solve, false, dt, false,
                              kXorRows));
    }
    auto early = std::async(std::launch::async, solve, true, kDefaultDt,
                            true, kMajRows);
    auto hot = std::async(std::launch::async, thermal_xor_rows_right,
                          kDefaultDt);
    auto hot_half = std::async(std::launch::async, thermal_xor_rows_right,
                               kDefaultDt / 2);
    for (auto& f : maj) maj_by_dt_.push_back(f.get());
    for (auto& f : xr) xor_by_dt_.push_back(f.get());
    maj_early_ = early.get();
    thermal_rows_right_ = hot.get();
    thermal_half_rows_right_ = hot_half.get();
  }

  static void expect_close(const Table& a, const Table& b,
                           const std::string& what) {
    for (const auto& [row, va] : a) {
      const Normalized& vb = b.at(row);
      EXPECT_NEAR(va.o1, vb.o1, kTol) << what << ", row " << row << " O1";
      EXPECT_NEAR(va.o2, vb.o2, kTol) << what << ", row " << row << " O2";
    }
  }

  static std::vector<Table> maj_by_dt_, xor_by_dt_;
  static Table maj_early_;
  static int thermal_rows_right_, thermal_half_rows_right_;
};

std::vector<Table> ReadoutConvergence::maj_by_dt_;
std::vector<Table> ReadoutConvergence::xor_by_dt_;
Table ReadoutConvergence::maj_early_;
int ReadoutConvergence::thermal_rows_right_ = 0;
int ReadoutConvergence::thermal_half_rows_right_ = 0;

TEST_F(ReadoutConvergence, Maj3RowsAgreeAcrossDt) {
  for (std::size_t i = 1; i < kDts.size(); ++i) {
    expect_close(maj_by_dt_[0], maj_by_dt_[i],
                 "MAJ3 dt " + std::to_string(kDts[i] * 1e12) + " ps vs " +
                     std::to_string(kDts[0] * 1e12) + " ps");
  }
}

TEST_F(ReadoutConvergence, XorRowsAgreeAcrossDt) {
  for (std::size_t i = 1; i < kDts.size(); ++i) {
    expect_close(xor_by_dt_[0], xor_by_dt_[i],
                 "XOR dt " + std::to_string(kDts[i] * 1e12) + " ps vs " +
                     std::to_string(kDts[0] * 1e12) + " ps");
  }
}

TEST_F(ReadoutConvergence, Maj3EarlyStopAgreesWithFullRun) {
  // kDts[2] is the default 0.5 ps step the early-stop run uses.
  ASSERT_EQ(kDts[2], kDefaultDt);
  expect_close(maj_by_dt_[2], maj_early_, "MAJ3 early stop vs full run");
}

TEST_F(ReadoutConvergence, ThermalXorTruthTableHoldsAtDefaultAndHalfStep) {
  // 300 K on RK4 inside its stability bound: every row reads right, and
  // halving the step keeps it so.
  EXPECT_EQ(thermal_rows_right_, 4) << "300 K XOR at the default step";
  EXPECT_EQ(thermal_half_rows_right_, 4) << "300 K XOR at half the step";
}

TEST_F(ReadoutConvergence, XorFanoutIsSymmetric) {
  // Row 01 cancels to a small residual wave that reaches both outputs
  // through mirror-image paths: it must read the same at O1 and O2.
  for (const Table& t : xor_by_dt_) {
    const Normalized& r = t.at("01");
    EXPECT_LE(std::fabs(r.o1 - r.o2), 0.005)
        << "XOR row 01: O1 " << r.o1 << " vs O2 " << r.o2;
  }
}

}  // namespace
}  // namespace swsim::core
