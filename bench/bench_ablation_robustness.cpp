// Ablation: variability and thermal robustness (paper Sec. IV-D).
//
// The paper defers variability/thermal analysis to future work, citing
// refs. [36]/[43] that similar gates keep functioning under edge roughness,
// trapezoidal cross-sections and thermal noise. We run those experiments on
// the reduced-scale micromagnetic XOR gate:
//
//   1. Thermal noise: full truth table at T = 0 / 150 / 300 K.
//   2. Edge roughness: amplitude sweep over several realizations until
//      one of them breaks the gate.
//   3. Trapezoidal cross-section: effective-width model impact on the
//      dispersion operating point.
//
// Runtime: a couple dozen LLG runs; a few minutes.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>

#include "bench/harness.h"
#include "core/logic.h"
#include "core/micromag_gate.h"
#include "core/validator.h"
#include "core/variability.h"
#include "geom/roughness.h"
#include "io/csv.h"
#include "io/table.h"
#include "math/constants.h"
#include "wavenet/dispersion.h"

using namespace swsim;
using namespace swsim::math;
using swsim::io::Table;

namespace {

core::MicromagGateConfig base_config() {
  core::MicromagGateConfig cfg;
  cfg.params = geom::TriangleGateParams::reduced_xor(nm(50), nm(20));
  return cfg;
}

struct XorResult {
  bool pass = true;
  double worst_margin = 1e300;
  double asymmetry = 0.0;
};

XorResult run_xor(const core::MicromagGateConfig& cfg) {
  core::MicromagTriangleGate gate(cfg);
  const auto report = core::validate_gate(gate);
  XorResult r;
  r.pass = report.all_pass;
  r.worst_margin = report.min_margin;
  r.asymmetry = report.max_output_asymmetry;
  return r;
}

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  swsim::bench::Harness harness("ablation_robustness", &argc, argv);
  std::cout << "=== Ablation: thermal noise and fabrication variability ===\n\n";
  io::CsvWriter csv("bench_ablation_robustness.csv");
  csv.write_row({"experiment", "value", "pass", "worst_margin", "asymmetry"});

  // 1. Thermal noise.
  std::cout << "1. thermal noise (micromagnetic XOR truth table)\n\n";
  Table thermal({"T (K)", "truth table", "worst margin", "|O1-O2| max"});
  double thermal_ceiling = -1.0;
  const auto thermal_t0 = std::chrono::steady_clock::now();
  for (double temperature : {0.0, 2.0, 5.0, 50.0, 300.0}) {
    auto cfg = base_config();
    cfg.temperature = temperature;
    const XorResult r = run_xor(cfg);
    if (r.pass) thermal_ceiling = temperature;
    thermal.add_row({Table::num(temperature, 0), r.pass ? "PASS" : "FAIL",
                     Table::num(r.worst_margin, 3),
                     Table::num(r.asymmetry, 3)});
    csv.write_row({"thermal", Table::num(temperature, 0), r.pass ? "1" : "0",
                   Table::num(r.worst_margin, 4), Table::num(r.asymmetry, 4)});
  }
  harness.record_samples("thermal_sweep", "s", {seconds_since(thermal_t0)});
  std::cout << thermal.str()
            << "reduced-scale thermal ceiling: " << thermal_ceiling
            << " K, the highest passing temperature tested, for this drive "
               "level.\n"
            << "Every solve runs RK4 inside its stability bound "
               "(docs/PHYSICS.md 1.3), so the margin measures thermal noise,\n"
            << "not integrator growth. The paper itself defers thermal "
               "analysis to refs. [36][43] (different devices/materials)\n"
            << "and future work.\n\n";

  // 2. Edge roughness sweep. One realization's pass/fail is seed luck, so
  // each amplitude runs kRoughSeeds realizations; the break is the first
  // amplitude where any of them fails.
  constexpr int kRoughSeeds = 5;
  std::cout << "2. edge roughness (amplitude sweep, correlation 10 nm, "
            << kRoughSeeds << " realizations per amplitude)\n\n";
  Table rough({"roughness amplitude (nm)", "realizations passing",
               "worst margin", "|O1-O2| max"});
  double break_at = -1.0;
  const auto rough_t0 = std::chrono::steady_clock::now();
  for (double amp_nm : {0.0, 2.0, 4.0, 6.0}) {
    // A smooth guide is one realization whatever the seed.
    const int seeds = amp_nm > 0.0 ? kRoughSeeds : 1;
    int passed = 0;
    XorResult worst;
    for (int k = 0; k < seeds; ++k) {
      auto cfg = base_config();
      if (amp_nm > 0.0) {
        geom::RoughnessParams rp;
        rp.amplitude = nm(amp_nm);
        rp.correlation_length = nm(10);
        rp.seed = 2026 + k;
        cfg.roughness = rp;
      }
      const XorResult r = run_xor(cfg);
      if (r.pass) ++passed;
      worst.worst_margin = std::min(worst.worst_margin, r.worst_margin);
      worst.asymmetry = std::max(worst.asymmetry, r.asymmetry);
    }
    const double pass_frac = static_cast<double>(passed) / seeds;
    if (passed < seeds && break_at < 0.0) break_at = amp_nm;
    rough.add_row({Table::num(amp_nm, 0),
                   std::to_string(passed) + "/" + std::to_string(seeds),
                   Table::num(worst.worst_margin, 3),
                   Table::num(worst.asymmetry, 3)});
    csv.write_row({"roughness", Table::num(amp_nm, 1),
                   Table::num(pass_frac, 2),
                   Table::num(worst.worst_margin, 4),
                   Table::num(worst.asymmetry, 4)});
  }
  harness.record_samples("roughness_sweep", "s", {seconds_since(rough_t0)});
  std::cout << rough.str();
  if (break_at >= 0.0) {
    std::cout << "every realization functional up to < "
              << Table::num(break_at, 0)
              << " nm edge displacement (waveguide width 20 nm)\n\n";
  } else {
    std::cout << "gate functional across the whole sweep\n\n";
  }

  // 3. Trapezoidal cross-section: the effective width shrinks; the design
  // rule width <= lambda (and < lambda/2 for single-mode operation) only
  // tightens, so functionality is preserved — quantify the shift.
  std::cout << "3. trapezoidal cross-section (effective-width model)\n\n";
  Table trap({"sidewall angle (deg)", "effective width (nm)",
              "single-mode (w < lambda/2)"});
  const double w_top = nm(20);
  const double thickness = nm(1);
  for (double deg : {0.0, 30.0, 45.0, 60.0}) {
    const double w_eff =
        geom::trapezoid_effective_width(w_top, thickness, deg * kPi / 180.0);
    trap.add_row({Table::num(deg, 0), Table::num(to_nm(w_eff), 2),
                  w_eff < nm(50) / 2.0 ? "yes" : "no"});
    csv.write_row({"trapezoid", Table::num(deg, 0),
                   w_eff < nm(25) ? "1" : "0", Table::num(to_nm(w_eff), 3),
                   "0"});
  }
  std::cout << trap.str()
            << "(1 nm film: even steep sidewalls change the width by ~1 nm "
               "— negligible, as refs. [36][43] found)\n\n";

  // 4. Monte-Carlo yield under phase/amplitude spread (wave-network
  // backend, paper-scale device, 500 virtual devices per point).
  std::cout << "4. Monte-Carlo yield (500 devices per point)\n\n";
  core::TriangleMajGate maj = core::TriangleMajGate::paper_device();
  core::TriangleXorGate xg = core::TriangleXorGate::paper_device();
  Table yield({"length tolerance (nm, 1-sigma)", "amplitude spread",
               "MAJ yield", "XOR yield"});
  const auto yield_t0 = std::chrono::steady_clock::now();
  for (const auto& [len_nm, amp] :
       std::vector<std::pair<double, double>>{
           {0.0, 0.0}, {1.0, 0.02}, {2.0, 0.05}, {4.0, 0.10}, {8.0, 0.20}}) {
    core::VariabilityModel m;
    m.sigma_phase =
        core::VariabilityModel::phase_sigma_for_length(nm(len_nm), nm(55));
    m.sigma_amplitude = amp;
    m.seed = 2027;
    const auto ry_maj = core::estimate_yield(maj, m, 500);
    const auto ry_xor = core::estimate_yield(xg, m, 500);
    yield.add_row({Table::num(len_nm, 1), Table::num(amp * 100, 0) + "%",
                   Table::num(ry_maj.yield * 100, 1) + "%",
                   Table::num(ry_xor.yield * 100, 1) + "%"});
    csv.write_row({"yield", Table::num(len_nm, 1),
                   Table::num(ry_maj.yield, 4), Table::num(ry_xor.yield, 4),
                   Table::num(amp, 3)});
  }
  harness.record_samples("yield_sweep", "s", {seconds_since(yield_t0)},
                         /*items_per_second=*/0.0);
  std::cout << yield.str()
            << "(MAJ is the fragile one under amplitude spread: its "
               "minority-I3 rows sit near an amplitude cancellation — see "
               "test_core_variability.cpp)\n";
  harness.add_scalar("thermal_ceiling_k", thermal_ceiling);
  harness.add_scalar("roughness_break_nm", break_at >= 0.0 ? break_at : -1.0);
  return harness.finish() ? 0 : 1;
}
