// LLG truth-table workloads: llg_maj3 (the default reduced MAJ3 gate at
// T = 0, fused kernel path) and llg_thermal_xor (the reduced XOR gate at
// 300 K with a fixed thermal seed, scalar path). Both run serial on one
// thread.
//
// Untraced run: set-up (gate construction + calibration solve) is repeated
// kSetups times and its median published as setup_s; then the 2^n rows
// run in a seed-chosen order, each checked against reference().
//
// Traced run: the same set-ups and one table with a span around every
// call into a layer. Each row is solved twice, first with tracing
// disarmed (the baseline of the tracing overhead; the traced solve must
// reproduce its bytes), then traced. The layer probes follow: calls into
// mag::kernels::SolveContext, the scalar field, the thermal field and the
// lock-in, timed on the gate's own grid.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/logic.h"
#include "core/micromag_gate.h"
#include "mag/kernels/context.h"
#include "mag/llg.h"
#include "mag/simulation.h"
#include "mag/thermal_field.h"
#include "math/lockin.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "tracer.h"

namespace perfbench {

namespace {

using swsim::core::MicromagTriangleGate;
namespace mag = swsim::mag;
namespace kernels = swsim::mag::kernels;

constexpr int kSetups = 3;
// Untraced row solves per requested second: at --seconds 6 one MAJ3 table
// or two XOR tables. Short runs keep a set of runs inside one speed phase
// of a shared host (perfbench/README.md, "Noise").
constexpr double kRowsPerSecond = 1.2;
constexpr double kTemperature = 300.0;
constexpr std::uint64_t kThermalSeed = 7;

swsim::core::MicromagGateConfig gate_config(bool thermal) {
  using swsim::math::nm;
  swsim::core::MicromagGateConfig cfg;
  cfg.params = thermal
                   ? swsim::geom::TriangleGateParams::reduced_xor(nm(50), nm(20))
                   : swsim::geom::TriangleGateParams::reduced_maj3(nm(50), nm(20));
  cfg.cell_size = nm(4);
  if (thermal) {
    cfg.temperature = kTemperature;
    cfg.thermal_seed = kThermalSeed;
  }
  return cfg;
}

// Integration steps one solve of `duration` takes at fixed step `dt`:
// the same clock arithmetic as mag::Simulation::run.
std::uint64_t steps_per_solve(double duration, double dt) {
  double t = 0.0;
  std::uint64_t n = 0;
  while (t < duration - 1e-18) {
    t += dt;
    ++n;
  }
  return n;
}

// Seeded Fisher-Yates over the row indices (xorshift64*), so the row
// order is an input of the run and identical for one seed everywhere.
std::vector<std::size_t> row_order(std::size_t rows, std::uint64_t seed) {
  std::vector<std::size_t> order(rows);
  for (std::size_t i = 0; i < rows; ++i) order[i] = i;
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = rows; i > 1; --i) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    const std::uint64_t r = s * 0x2545f4914f6cdd1dull;
    std::swap(order[i - 1], order[r % i]);
  }
  return order;
}

struct Setup {
  std::unique_ptr<MicromagTriangleGate> gate;
  double build_s = 0.0;
  double calibrate_s = 0.0;
};

Setup set_up(const swsim::core::MicromagGateConfig& cfg, Tracer& tr) {
  Setup s;
  Tracer::Scope total(tr, "core.setup");
  {
    Tracer::Scope build(tr, "core.gate_build");
    s.gate = std::make_unique<MicromagTriangleGate>(cfg);
    s.build_s = build.end();
  }
  {
    Tracer::Scope cal(tr, "core.calibrate");
    const swsim::core::MicromagCalibration c = s.gate->calibrate();
    s.calibrate_s = cal.end();
    if (!std::isfinite(c.ref_amplitude) || !(c.ref_amplitude > 0.0)) {
      throw std::runtime_error("calibration produced a non-finite reference");
    }
  }
  return s;
}

struct Table {
  double wall_s = 0.0;
  std::vector<double> row_s;       // by row index (pattern order)
  std::vector<double> base_row_s;  // paired untraced solves (traced runs)
  std::uint64_t digest = 0;
  std::uint64_t failed = 0;
  std::vector<double> o1_tail;  // a detector series, for the lock-in probe
  double sample_dt = 0.0;
};

// The bytes of a row's normalized amplitudes, phases and logic bits: the
// quantities the paper reads.
std::uint64_t row_hash(const swsim::core::MicromagEvaluation& ev) {
  const double vals[4] = {ev.outputs.normalized_o1, ev.outputs.normalized_o2,
                          ev.outputs.o1.phase, ev.outputs.o2.phase};
  const unsigned char logic[2] = {ev.outputs.o1.logic, ev.outputs.o2.logic};
  return fnv1a(logic, 2, fnv1a(vals, sizeof vals));
}

// One row solve; false (recorded in the report) when it throws.
bool solve_row(MicromagTriangleGate& gate, const std::vector<bool>& bits,
               swsim::core::MicromagEvaluation& ev, Report& report) {
  try {
    ev = gate.evaluate_full(bits);
    return true;
  } catch (const std::exception& e) {
    report.fail(std::string("row solve threw: ") + e.what());
    return false;
  }
}

// Runs every row once in `order` and checks it: finite amplitudes and
// phases, and both outputs equal to reference(). With `paired` (traced
// runs) each row is first solved with tracing disarmed, for the tracing
// overhead, and the traced solve must reproduce its bytes; `after_row`
// then runs, so layer probes see the same host conditions as the rows.
Table run_table(MicromagTriangleGate& gate, const std::vector<std::size_t>& order,
                Tracer& tr, Report& report, bool paired,
                const std::function<void(const Table&)>& after_row = {}) {
  const auto patterns = swsim::core::all_input_patterns(gate.num_inputs());
  Table t;
  t.row_s.assign(patterns.size(), 0.0);
  t.base_row_s.assign(patterns.size(), 0.0);
  std::vector<std::uint64_t> row_digest(patterns.size(), 0);
  Tracer::Scope table(tr, "core.truthtable");
  for (const std::size_t r : order) {
    const std::vector<bool>& bits = patterns[r];
    swsim::core::MicromagEvaluation base;
    bool base_ok = true;
    if (paired) {
      // Recorded in the self-time table only: the program's spans are off.
      swsim::obs::TraceSession::global().stop();
      ++report.attempted;
      Tracer::Scope untraced(tr, "bench.untraced_row");
      base_ok = solve_row(gate, bits, base, report);
      t.base_row_s[r] = untraced.end();
      if (!base_ok) ++report.failed;
      swsim::obs::TraceSession::global().start();
    }
    ++report.attempted;
    swsim::core::MicromagEvaluation ev;
    bool ok = true;
    {
      Tracer::Scope row(tr, "core.evaluate_full");
      ok = solve_row(gate, bits, ev, report);
      t.row_s[r] = row.end();
    }
    if (ok) {
      for (const double v : {ev.outputs.normalized_o1, ev.outputs.normalized_o2,
                             ev.outputs.o1.phase, ev.outputs.o2.phase,
                             ev.o1_amplitude, ev.o2_amplitude}) {
        if (!std::isfinite(v)) {
          ok = false;
          report.fail("non-finite amplitude or phase in row " + std::to_string(r));
          break;
        }
      }
      const bool expected = gate.reference(bits);
      ok = ok && ev.outputs.o1.logic == expected && ev.outputs.o2.logic == expected;
      row_digest[r] = row_hash(ev);
      if (paired && base_ok && row_hash(base) != row_digest[r]) {
        report.fail("traced row " + std::to_string(r) + " differs from untraced");
      }
      if (t.o1_tail.empty() && !ev.probe_series.empty()) {
        const auto& ps = ev.probe_series.front();
        const auto i0 = static_cast<std::size_t>(0.6 * static_cast<double>(ps.mx.size()));
        t.o1_tail.assign(ps.mx.begin() + static_cast<long>(i0), ps.mx.end());
        if (ps.t.size() > 1) t.sample_dt = ps.t[1] - ps.t[0];
      }
    }
    if (!ok) ++t.failed;
    if (after_row) after_row(t);
  }
  t.wall_s = table.end();
  t.digest = fnv1a(row_digest.data(), row_digest.size() * sizeof(std::uint64_t));
  report.failed += t.failed;
  return t;
}

// Sums the "llg.steps xN" blocks mag::Simulation records while tracing.
std::uint64_t traced_steps() {
  const swsim::obs::JsonValue doc =
      swsim::obs::parse_json(swsim::obs::TraceSession::global().chrome_json());
  std::uint64_t steps = 0;
  const swsim::obs::JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) return 0;
  for (const auto& ev : events->array()) {
    const swsim::obs::JsonValue* name = ev.find("name");
    if (!name || !name->is_string()) continue;
    const std::string& s = name->str();
    if (s.rfind("llg.steps x", 0) == 0) steps += std::stoull(s.substr(11));
  }
  return steps;
}

struct Probes {
  double eval_us = 0, stage_us = 0, convert_us = 0, renorm_us = 0;
  double ref_field_us = 0, thermal_us = 0, lockin_us = 0;
};

// One round of timings of the solver's per-step building blocks on a
// System built on the gate's grid and body mask with the standard terms,
// plus the lock-in over a real detector tail.
Probes run_probes(const MicromagTriangleGate& gate, double dt, const Table& t,
                  Tracer& tr, Report& report) {
  constexpr int kReps = 5;
  mag::Simulation sim(mag::System(gate.grid(), swsim::mag::Material::fecob(),
                                  gate.body_mask()));
  sim.add_standard_terms();
  const mag::System& sys = sim.system();
  const swsim::math::VectorField m0 =
      sys.uniform_magnetization(swsim::math::normalized(swsim::math::Vec3{0.1, 0.05, 1.0}));
  Probes p;
  std::unique_ptr<kernels::SolveContext> ctx =
      kernels::SolveContext::create(sys, sim.terms());
  if (!ctx) report.fail("the standard terms did not lower to a kernel plan");
  if (ctx) {
    kernels::SolveContext& c = *ctx;
    c.load_m(m0);
    {
      Tracer::Scope s(tr, "kernels.eval");
      p.eval_us = per_call_us([&] { c.eval(c.m_, 0.0, c.k1_); }, 40, kReps);
    }
    c.k2_ = c.k1_;
    c.k3_ = c.k1_;
    c.k4_ = c.k1_;
    {
      // One RK4 step's stage work: three stage1 calls and one combine<4>.
      Tracer::Scope s(tr, "kernels.stage");
      const double coef[4] = {1.0, 2.0, 2.0, 1.0};
      const kernels::SoaVec* const ks[4] = {&c.k1_, &c.k2_, &c.k3_, &c.k4_};
      p.stage_us = per_call_us(
          [&] {
            c.stage1(c.tmp_, c.m_, 0.5 * dt, c.k1_);
            c.stage1(c.tmp_, c.m_, 0.5 * dt, c.k2_);
            c.stage1(c.tmp_, c.m_, dt, c.k3_);
            c.combine(c.tmp_, c.m_, dt / 6.0, coef, ks);
          },
          40, kReps);
    }
    {
      swsim::math::VectorField m = m0;
      Tracer::Scope s(tr, "kernels.convert");
      p.convert_us = per_call_us(
          [&] {
            c.load_m(m0);
            c.store_m(m);
          },
          40, kReps);
    }
  }
  {
    swsim::math::VectorField m = m0;
    Tracer::Scope s(tr, "kernels.renorm");
    p.renorm_us = per_call_us([&] { mag::renormalize(sys, m); }, 40, kReps);
  }
  {
    swsim::math::VectorField h(sys.grid());
    Tracer::Scope s(tr, "mag.ref_field");
    p.ref_field_us =
        per_call_us([&] { mag::effective_field(sys, sim.terms(), m0, 0.0, h); }, 20, kReps);
  }
  {
    // Per Heun step: one fresh noise draw, accumulated in both stages.
    mag::ThermalField thermal(kTemperature, kThermalSeed);
    swsim::math::VectorField h(sys.grid());
    Tracer::Scope s(tr, "mag.thermal");
    p.thermal_us = per_call_us(
        [&] {
          thermal.advance_step(dt);
          thermal.accumulate(sys, m0, 0.0, h);
          thermal.accumulate(sys, m0, 0.0, h);
        },
        20, kReps);
  }
  if (!t.o1_tail.empty() && t.sample_dt > 0.0) {
    Tracer::Scope s(tr, "math.lockin");
    p.lockin_us = per_call_us(
        [&] {
          const auto r = swsim::math::lockin(t.o1_tail, t.sample_dt,
                                             gate.drive_frequency(), 0.0);
          if (!std::isfinite(r.amplitude)) report.fail("lock-in probe non-finite");
        },
        50, kReps);
  }
  return p;
}

// Field-wise median over probe rounds.
Probes median_probes(const std::vector<Probes>& rounds) {
  const auto med = [&](double Probes::*f) {
    std::vector<double> v;
    for (const Probes& p : rounds) v.push_back(p.*f);
    return median(std::move(v));
  };
  Probes m;
  for (double Probes::*f : {&Probes::eval_us, &Probes::stage_us, &Probes::convert_us,
                            &Probes::renorm_us, &Probes::ref_field_us,
                            &Probes::thermal_us, &Probes::lockin_us}) {
    m.*f = med(f);
  }
  return m;
}

}  // namespace

void run_llg(const Options& opts, Report& report) {
  const bool thermal = opts.workload == "llg_thermal_xor";
  const swsim::core::MicromagGateConfig cfg = gate_config(thermal);
  if (opts.trace) swsim::obs::TraceSession::global().start();
  Tracer tr(opts.trace);

  std::vector<double> build_s, cal_s, setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = set_up(cfg, tr);
    build_s.push_back(setup.build_s);
    cal_s.push_back(setup.calibrate_s);
    setup_s.push_back(setup.build_s + setup.calibrate_s);
  }
  MicromagTriangleGate& gate = *setup.gate;
  const std::size_t rows = std::size_t{1} << gate.num_inputs();
  const std::vector<std::size_t> order = row_order(rows, opts.seed);
  const std::uint64_t steps = steps_per_solve(gate.simulated_duration(), cfg.dt);
  const double grid_cells = static_cast<double>(gate.grid().cell_count());
  const double active_cells = static_cast<double>(gate.body_mask().count());

  std::string order_str;
  for (const std::size_t r : order) order_str += std::to_string(r) + " ";
  std::printf("gate %s: %zu rows, order %s| %.0f grid cells, %.0f active, "
              "%llu steps per solve\n",
              gate.name().c_str(), rows, order_str.c_str(), grid_cells,
              active_cells, static_cast<unsigned long long>(steps));

  // Whole tables covering kRowsPerSecond * --seconds row solves, at least
  // one table; the count depends on the arguments only, never on the
  // host's speed. Later tables must reproduce the first one's digest.
  const int tables =
      opts.trace ? 1
                 : std::max<int>(1, static_cast<int>(std::ceil(
                                        kRowsPerSecond * opts.seconds /
                                        static_cast<double>(rows))));
  std::vector<Probes> rounds;
  const auto probe_round = [&](const Table& t) {
    rounds.push_back(run_probes(gate, cfg.dt, t, tr, report));
  };
  std::vector<Table> done;
  for (int i = 0; i < tables; ++i) {
    done.push_back(run_table(gate, order, tr, report, opts.trace,
                             opts.trace ? std::function<void(const Table&)>(probe_round)
                                        : nullptr));
    if (done.back().digest != done.front().digest) {
      report.fail("truth table is not deterministic across repeats");
    }
  }
  report.digest = hex64(done.front().digest);
  std::vector<double> table_s, row_s;
  for (const Table& t : done) {
    std::printf("table %.6f s, rows", t.wall_s);
    for (const double v : t.row_s) std::printf(" %.4f", v);
    std::printf("\n");
    table_s.push_back(t.wall_s);
    row_s.insert(row_s.end(), t.row_s.begin(), t.row_s.end());
  }
  report.info.push_back({"llg.tables", static_cast<double>(tables), "count"});
  report.info.push_back({"llg.failed_rows_per_table",
                         static_cast<double>(done.front().failed), "count"});

  if (!opts.trace) {
    double row_sum = 0.0;
    for (const double v : row_s) row_sum += v;
    const double cell_steps = active_cells * static_cast<double>(steps) *
                              static_cast<double>(row_s.size());
    report.end_to_end = {
        {"setup_s", median(setup_s), "s"},
        {"truthtable_s", median(table_s), "s"},
        {"throughput_per_s", cell_steps / row_sum, "1/s"},
        {"latency_p50_s", median(row_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac",
         static_cast<double>(report.attempted - report.failed) /
             static_cast<double>(report.attempted),
         "frac"},
    };
    return;
  }

  const Table& traced = done.front();
  const Probes p = median_probes(rounds);
  swsim::obs::TraceSession::global().stop();

  // Traced solves: the calibrations and one solve per row.
  const std::uint64_t solves = static_cast<std::uint64_t>(kSetups) + rows;
  const std::uint64_t counted = traced_steps();
  if (counted != steps * solves) {
    report.fail("traced step count " + std::to_string(counted) + " != " +
                std::to_string(steps * solves) + " expected");
  }

  double traced_sum = 0.0, base_sum = 0.0;
  std::vector<double> ratio;
  for (std::size_t r = 0; r < rows; ++r) {
    traced_sum += traced.row_s[r];
    base_sum += traced.base_row_s[r];
    ratio.push_back(traced.row_s[r] / traced.base_row_s[r]);
  }
  const double table_steps = static_cast<double>(steps * rows);
  const double per_step_us =
      thermal ? 2.0 * p.ref_field_us + p.thermal_us + p.renorm_us
              : 4.0 * p.eval_us + p.stage_us + p.convert_us + p.renorm_us;
  const double attributed = per_step_us * 1e-6 * table_steps / base_sum;

  report.per_layer = {
      {"core.gate_build_s", median(build_s), "s"},
      {"core.calibrate_s", median(cal_s), "s"},
      {"core.row_s_p50", median(traced.row_s), "s"},
      {"mag.grid_cells", grid_cells, "count"},
      {"mag.active_cells", active_cells, "count"},
      {"mag.steps", table_steps, "count"},
      {"mag.step_us", traced_sum / table_steps * 1e6, "us"},
      {"kernels.eval_us", p.eval_us, "us"},
      {"kernels.stage_us", p.stage_us, "us"},
      {"kernels.convert_us", p.convert_us, "us"},
      {"kernels.renorm_us", p.renorm_us, "us"},
      {"kernels.attributed_frac", attributed, "frac"},
      {"mag.ref_field_us", p.ref_field_us, "us"},
      {"mag.thermal_us", p.thermal_us, "us"},
      {"math.lockin_us", p.lockin_us, "us"},
      {"obs.trace_overhead_frac", median(ratio) - 1.0, "frac"},
  };
  report.info.push_back({"kernels.unattributed_frac", 1.0 - attributed, "frac"});
  report.info.push_back(
      {"math.lockin_share_frac",
       2.0 * p.lockin_us * 1e-6 * static_cast<double>(rows) / base_sum, "frac"});
  std::printf("self time (traced pass):\n%s", tr.self_time_table().c_str());
}

}  // namespace perfbench
