// Micro-benchmarks of the simulation substrate (google-benchmark):
// effective-field terms, steppers, FFT demag, and a full gate evaluation.
// Not a paper table — engineering data for anyone extending the solver.
//
// After the micro-benchmarks, one default reduced-MAJ3 row is solved
// through the gate on the kernel path and against the scalar oracle
// (gate_maj3_solve, active-cell-steps/s), and a macro comparison runs the paper-style
// 8-entry MAJ truth table on the LLG backend three ways — legacy serial,
// engine cold-cache, engine warm-cache — and prints wall time, speedup and
// cache hit rate (also dumped to bench_engine_speedup.csv). The speedup of
// the cold engine run comes from the thread pool (and is therefore ~1x on
// a single-core host); the warm run's comes from the content-addressed
// cache and is host-independent. All three paths must produce an
// identical report — the table says so explicitly.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench/harness.h"
#include "core/micromag_gate.h"
#include "core/triangle_gate.h"
#include "core/validator.h"
#include "engine/batch_runner.h"
#include "engine/hash.h"
#include "io/csv.h"
#include "io/table.h"
#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/exchange_field.h"
#include "mag/kernels/runtime.h"
#include "mag/llg.h"
#include "mag/simulation.h"
#include "mag/zeeman_field.h"
#include "math/fft.h"
#include "obs/metrics.h"
#include "obs/profile.h"

using namespace swsim;
using namespace swsim::math;

namespace {

mag::System make_system(std::size_t n) {
  return mag::System(Grid(n, n, 1, 5e-9, 5e-9, 1e-9),
                     mag::Material::fecob());
}

void BM_ExchangeField(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mag::System sys = make_system(n);
  const auto m = sys.uniform_magnetization({0, 0, 1});
  VectorField h(sys.grid());
  mag::ExchangeField ex;
  for (auto _ : state) {
    h.fill(Vec3{});
    ex.accumulate(sys, m, 0.0, h);
    benchmark::DoNotOptimize(h.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_ExchangeField)->Arg(32)->Arg(64)->Arg(128);

void BM_ThinFilmDemag(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mag::System sys = make_system(n);
  const auto m = sys.uniform_magnetization({0, 0, 1});
  VectorField h(sys.grid());
  mag::ThinFilmDemagField demag;
  for (auto _ : state) {
    h.fill(Vec3{});
    demag.accumulate(sys, m, 0.0, h);
    benchmark::DoNotOptimize(h.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_ThinFilmDemag)->Arg(64)->Arg(128);

void BM_NewellDemag(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mag::System sys = make_system(n);
  mag::NewellDemagField demag(sys);
  const auto m = sys.uniform_magnetization({0, 0, 1});
  VectorField h(sys.grid());
  for (auto _ : state) {
    h.fill(Vec3{});
    demag.accumulate(sys, m, 0.0, h);
    benchmark::DoNotOptimize(h.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_NewellDemag)->Arg(16)->Arg(32)->Arg(64);

void BM_StepperRk4(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mag::System sys = make_system(n);
  std::vector<std::unique_ptr<mag::FieldTerm>> terms;
  terms.push_back(std::make_unique<mag::ExchangeField>());
  terms.push_back(std::make_unique<mag::UniaxialAnisotropyField>());
  terms.push_back(std::make_unique<mag::ThinFilmDemagField>());
  auto m = sys.uniform_magnetization({0, 0, 1});
  mag::Stepper stepper(mag::StepperKind::kRk4, 0.25e-12);
  double t = 0.0;
  for (auto _ : state) {
    t += stepper.step(sys, terms, m, t);
    benchmark::DoNotOptimize(m.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_StepperRk4)->Arg(32)->Arg(64);

void BM_StepperHeun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mag::System sys = make_system(n);
  std::vector<std::unique_ptr<mag::FieldTerm>> terms;
  terms.push_back(std::make_unique<mag::ExchangeField>());
  terms.push_back(std::make_unique<mag::UniaxialAnisotropyField>());
  terms.push_back(std::make_unique<mag::ThinFilmDemagField>());
  auto m = sys.uniform_magnetization({0, 0, 1});
  mag::Stepper stepper(mag::StepperKind::kHeun, 0.25e-12);
  double t = 0.0;
  for (auto _ : state) {
    t += stepper.step(sys, terms, m, t);
    benchmark::DoNotOptimize(m.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_StepperHeun)->Arg(32)->Arg(64);

void BM_Fft3d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Complex> data(n * n);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = Complex{static_cast<double>(i % 7), 0.0};
  }
  for (auto _ : state) {
    fft3d(data, n, n, 1);
    fft3d(data, n, n, 1, /*inverse=*/true);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft3d)->Arg(64)->Arg(128)->Arg(256);

void BM_TriangleGateEvaluate(benchmark::State& state) {
  core::TriangleMajGate gate = core::TriangleMajGate::paper_device();
  gate.reference_amplitude();  // warm the normalization cache
  const std::vector<bool> pattern{true, false, true};
  for (auto _ : state) {
    auto out = gate.evaluate(pattern);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_TriangleGateEvaluate);

// Single-solve throughput of the three solver configurations on one
// representative term set (exchange + anisotropy + thin-film demag +
// antenna, the Fig. 2/5 workload): the scalar reference path, the fused
// SoA kernel path, and the kernel path with intra-solve threads. All three
// produce byte-identical magnetization (asserted here — a bench that
// quietly measured a divergent solver would be worse than useless).
void run_kernel_throughput(swsim::bench::Harness& harness) {
  const std::size_t n = harness.quick() ? 64 : 128;
  const std::size_t steps = harness.quick() ? 40 : 100;
  mag::System sys = make_system(n);

  const auto make_terms = [&sys] {
    std::vector<std::unique_ptr<mag::FieldTerm>> terms;
    terms.push_back(std::make_unique<mag::ExchangeField>());
    terms.push_back(std::make_unique<mag::UniaxialAnisotropyField>());
    terms.push_back(std::make_unique<mag::ThinFilmDemagField>());
    Mask region(sys.grid(), false);
    for (std::size_t y = 0; y < sys.grid().ny(); ++y) {
      for (std::size_t x = 2; x < 6; ++x) {
        region.set(sys.grid().index(x, y, 0), true);
      }
    }
    terms.push_back(std::make_unique<mag::AntennaField>(
        region, 4e3, Vec3{1, 0, 0}, 10e9, 0.0));
    return terms;
  };

  const double cell_steps =
      static_cast<double>(n) * static_cast<double>(n) *
      static_cast<double>(steps);
  VectorField result(sys.grid());
  const auto run_solve = [&](int force_mode, std::size_t cell_jobs) {
    mag::kernels::set_force_reference(force_mode);
    mag::kernels::set_cell_jobs(cell_jobs);
    auto terms = make_terms();
    auto m = sys.uniform_magnetization({0, 0, 1});
    mag::Stepper stepper(mag::StepperKind::kRk4, 0.25e-12);
    double t = 0.0;
    for (std::size_t s = 0; s < steps; ++s) t += stepper.step(sys, terms, m, t);
    result = m;
  };

  std::cout << "\nkernel throughput: " << n << "x" << n << " cells, " << steps
            << " RK4 steps per sample\n";
  harness.time_case("kernel_scalar_ref",
                    [&] { run_solve(/*force reference*/ 1, 1); }, cell_steps);
  const VectorField ref = result;
  harness.time_case("kernel_fused_soa",
                    [&] { run_solve(/*force kernels*/ 0, 1); }, cell_steps);
  const VectorField fused = result;
  const std::size_t hw = engine::ThreadPool::default_threads();
  harness.time_case("kernel_fused_soa_mt", [&] { run_solve(0, hw); },
                    cell_steps);
  const VectorField fused_mt = result;
  mag::kernels::set_force_reference(-1);  // back to the SWSIM_KERNEL_REF env
  mag::kernels::set_cell_jobs(1);

  bool identical = ref.size() == fused.size();
  for (std::size_t i = 0; identical && i < ref.size(); ++i) {
    identical = std::memcmp(&ref[i], &fused[i], sizeof(Vec3)) == 0 &&
                std::memcmp(&ref[i], &fused_mt[i], sizeof(Vec3)) == 0;
  }
  std::cout << "reference vs fused vs fused+mt (" << hw
            << " threads): " << (identical ? "byte-identical" : "DIVERGED")
            << "\n";

  const auto median_ips = [&harness](const std::string& name) {
    for (const auto& [case_name, c] : harness.cases()) {
      if (case_name == name) return c.items_per_second;
    }
    return 0.0;
  };
  // Gated scalar (see compare_benches): single-thread fused throughput is
  // the headline number this PR's acceptance bar tracks.
  harness.add_scalar("cell_steps_per_second", median_ips("kernel_fused_soa"));
  harness.add_scalar("kernel_speedup",
                     median_ips("kernel_scalar_ref") > 0.0
                         ? median_ips("kernel_fused_soa") /
                               median_ips("kernel_scalar_ref")
                         : 0.0);
  harness.add_scalar("kernel_identical_output", identical ? 1.0 : 0.0);
}

// Integration steps one solve of `duration` takes at fixed step `dt`: the
// clock arithmetic of mag::Simulation::run.
std::uint64_t steps_per_solve(double duration, double dt) {
  std::uint64_t n = 0;
  for (double t = 0.0; t < duration - 1e-18; t += dt) ++n;
  return n;
}

// One default reduced-MAJ3 row (inputs 101) through MicromagTriangleGate:
// the paper's Table I unit of work, end to end through the gate's own
// Simulation with its probes, demodulators and watchdogs. Timed on the
// kernel path in active-cell-steps/s; then the full evaluation
// (calibration + row) runs once under the forced scalar oracle and once on
// the kernel path, and gate_identical_output is 1 only when the normalized
// amplitudes, phases and logic bits agree to the byte.
void run_gate_solve(swsim::bench::Harness& harness) {
  core::MicromagGateConfig cfg;  // default reduced MAJ3, 4 nm cells
  if (harness.quick()) cfg.cell_size = math::nm(8);
  const std::vector<bool> row{true, false, true};

  mag::kernels::set_force_reference(0);
  mag::kernels::set_cell_jobs(1);
  core::MicromagTriangleGate gate(cfg);
  gate.calibrate();
  const double cell_steps =
      static_cast<double>(gate.body_mask().count()) *
      static_cast<double>(steps_per_solve(gate.simulated_duration(), gate.dt()));
  std::cout << "\ngate solve: reduced MAJ3 row 101, "
            << gate.body_mask().count() << " magnetic of "
            << gate.grid().cell_count() << " cells\n";
  harness.time_case("gate_maj3_solve", [&] { gate.evaluate_full(row); },
                    cell_steps);

  const auto solve = [&](int force_mode) {
    mag::kernels::set_force_reference(force_mode);
    core::MicromagTriangleGate fresh(cfg);
    return fresh.evaluate_full(row).outputs;
  };
  const core::FanoutOutputs oracle = solve(1);
  const core::FanoutOutputs compact = solve(0);
  mag::kernels::set_force_reference(-1);  // back to the SWSIM_KERNEL_REF env

  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const bool identical =
      same(oracle.normalized_o1, compact.normalized_o1) &&
      same(oracle.normalized_o2, compact.normalized_o2) &&
      same(oracle.o1.phase, compact.o1.phase) &&
      same(oracle.o2.phase, compact.o2.phase) &&
      oracle.o1.logic == compact.o1.logic &&
      oracle.o2.logic == compact.o2.logic;
  std::cout << "oracle vs kernel path (normalized amplitude, phase, logic): "
            << (identical ? "byte-identical" : "DIVERGED") << "\n";

  double ips = 0.0;
  for (const auto& [case_name, c] : harness.cases()) {
    if (case_name == "gate_maj3_solve") ips = c.items_per_second;
  }
  harness.add_scalar("gate_cell_steps_per_second", ips);
  harness.add_scalar("gate_identical_output", identical ? 1.0 : 0.0);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Serial vs engine on the 8-entry micromagnetic MAJ truth table.
void run_engine_comparison(swsim::bench::Harness& harness) {
  core::MicromagGateConfig cfg;
  cfg.params = geom::TriangleGateParams::reduced_maj3(math::nm(50),
                                                      math::nm(20));
  // Coarse cells: this measures scheduling, not Fig. 5. --quick coarsens
  // further; serial and engine still compare like with like.
  cfg.cell_size = math::nm(harness.quick() ? 8 : 5);

  std::cout << "\nserial vs engine: micromagnetic MAJ truth table "
            << "(8 rows + calibration per pass)\n";

  // Arm the metrics registry so the engine's engine.job_seconds histogram
  // yields per-job latency percentiles for the CSV (serial rows record
  // nothing — the legacy path never touches the scheduler).
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::arm();

  // Legacy serial path: one gate, lazy calibration, rows in order.
  auto t0 = std::chrono::steady_clock::now();
  core::MicromagTriangleGate serial_gate(cfg);
  const auto serial_report = core::validate_gate(serial_gate);
  const double serial_s = seconds_since(t0);

  // Engine path, cold cache: one calibration job fans out to 8 row jobs.
  engine::BatchRunner runner(engine::EngineConfig{});
  auto calib = std::make_shared<std::optional<core::MicromagCalibration>>();
  const engine::BatchRunner::GateFactory factory = [cfg, calib] {
    auto gate = std::make_unique<core::MicromagTriangleGate>(cfg);
    if (calib->has_value()) gate->set_calibration(**calib);
    return gate;
  };
  const auto prepare = [cfg, calib] {
    core::MicromagTriangleGate gate(cfg);
    *calib = gate.calibrate();
  };
  const std::uint64_t key = engine::hash_of(cfg);

  t0 = std::chrono::steady_clock::now();
  const auto cold_report = runner.run_truth_table(factory, key, prepare);
  const double cold_s = seconds_since(t0);
  const auto cold_stats = runner.stats();
  const auto cold_jobs = obs::MetricsRegistry::global()
                             .histogram("engine.job_seconds")
                             .snapshot();
  obs::MetricsRegistry::global().histogram("engine.job_seconds").reset();

  // Second identical run: every row should come out of the cache.
  t0 = std::chrono::steady_clock::now();
  const auto warm_report = runner.run_truth_table(factory, key, prepare);
  const double warm_s = seconds_since(t0);
  const auto warm_stats = runner.stats();
  const auto warm_jobs = obs::MetricsRegistry::global()
                             .histogram("engine.job_seconds")
                             .snapshot();

  // Snapshot the run profile while the registry is still armed — it embeds
  // in BENCH_solver_perf.json as the machine-readable record of this pass.
  // Magnetic cells: every cell_steps_per_second is active-cell-steps/s.
  const std::uint64_t cells = serial_gate.body_mask().count();
  const obs::RunProfile profile =
      obs::RunProfile::collect(serial_s + cold_s + warm_s, cells);
  harness.set_profile_json(profile.to_json());
  obs::MetricsRegistry::disarm();
  const std::size_t warm_hits = warm_stats.cache.hits - cold_stats.cache.hits;
  const std::size_t warm_misses =
      warm_stats.cache.misses - cold_stats.cache.misses;
  const double warm_hit_rate =
      warm_hits + warm_misses == 0
          ? 0.0
          : static_cast<double>(warm_hits) /
                static_cast<double>(warm_hits + warm_misses);

  const std::string serial_str = core::format_report(serial_report);
  const bool cold_same = core::format_report(cold_report) == serial_str;
  const bool warm_same = core::format_report(warm_report) == serial_str;

  const auto p_ms = [](const obs::Histogram::Snapshot& s, double q) {
    return s.count == 0 ? std::string("")
                        : io::Table::num(s.quantile(q) * 1e3, 3);
  };

  io::Table t({"path", "wall (s)", "speedup", "cache hit rate",
               "job p50/p99 (ms)", "identical output"});
  t.add_row({"serial", io::Table::num(serial_s, 2), "1.00", "-", "-", "yes"});
  t.add_row({"engine cold (" + std::to_string(runner.threads()) + " threads)",
             io::Table::num(cold_s, 2), io::Table::num(serial_s / cold_s, 2),
             io::Table::num(cold_stats.cache.hit_rate() * 100, 0) + "%",
             p_ms(cold_jobs, 0.5) + "/" + p_ms(cold_jobs, 0.99),
             cold_same ? "yes" : "NO"});
  t.add_row({"engine warm", io::Table::num(warm_s, 2),
             io::Table::num(serial_s / warm_s, 2),
             io::Table::num(warm_hit_rate * 100, 0) + "%",
             warm_jobs.count == 0
                 ? "-"
                 : p_ms(warm_jobs, 0.5) + "/" + p_ms(warm_jobs, 0.99),
             warm_same ? "yes" : "NO"});
  std::cout << t.str();

  io::CsvWriter csv("bench_engine_speedup.csv");
  csv.write_row({"path", "wall_s", "speedup", "cache_hit_rate",
                 "job_p50_ms", "job_p90_ms", "job_p99_ms",
                 "identical_output"});
  csv.write_row({"serial", io::Table::num(serial_s, 4), "1.0", "", "", "",
                 "", "1"});
  csv.write_row({"engine_cold", io::Table::num(cold_s, 4),
                 io::Table::num(serial_s / cold_s, 4),
                 io::Table::num(cold_stats.cache.hit_rate(), 4),
                 p_ms(cold_jobs, 0.5), p_ms(cold_jobs, 0.9),
                 p_ms(cold_jobs, 0.99), cold_same ? "1" : "0"});
  csv.write_row({"engine_warm", io::Table::num(warm_s, 4),
                 io::Table::num(serial_s / warm_s, 4),
                 io::Table::num(warm_hit_rate, 4), p_ms(warm_jobs, 0.5),
                 p_ms(warm_jobs, 0.9), p_ms(warm_jobs, 0.99),
                 warm_same ? "1" : "0"});
  std::cout << "wrote bench_engine_speedup.csv\n";

  harness.record_samples("serial_truth_table", "s", {serial_s},
                         serial_s > 0.0 ? 8.0 / serial_s : 0.0);
  harness.record_samples("engine_cold_truth_table", "s", {cold_s},
                         cold_s > 0.0 ? 8.0 / cold_s : 0.0);
  harness.record_samples("engine_warm_truth_table", "s", {warm_s},
                         warm_s > 0.0 ? 8.0 / warm_s : 0.0);
  harness.add_scalar("speedup_cold", cold_s > 0.0 ? serial_s / cold_s : 0.0);
  harness.add_scalar("speedup_warm", warm_s > 0.0 ? serial_s / warm_s : 0.0);
  harness.add_scalar("warm_cache_hit_rate", warm_hit_rate);
  harness.add_scalar("identical_output",
                     (cold_same && warm_same) ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  // The harness strips its own flags (--quick/--repeats/...) from argv
  // first, so google-benchmark only sees what it recognizes.
  swsim::bench::Harness harness("solver_perf", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!harness.quick()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    std::cout << "micro-benchmarks skipped (--quick)\n";
  }
  benchmark::Shutdown();
  run_kernel_throughput(harness);
  run_gate_solve(harness);
  run_engine_comparison(harness);
  return harness.finish() ? 0 : 1;
}
