// Observability must be a pure observer: arming every sink (trace,
// metrics, event log) cannot change a single byte of solver output — on
// the analytic gate through the engine, and on the LLG path, where armed
// metrics add per-term field sweeps and timers inside the solve.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/micromag_gate.h"
#include "core/triangle_gate.h"
#include "core/validator.h"
#include "engine/batch_runner.h"
#include "engine/hash.h"
#include "math/constants.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swsim::engine {
namespace {

BatchRunner::GateFactory maj_factory() {
  core::TriangleGateConfig cfg;
  return [cfg] { return std::make_unique<core::TriangleMajGate>(cfg); };
}

// The default reduced-MAJ3 LLG truth table at 8 nm cells (the
// bench_solver_perf --quick gate), solved serially on one gate.
std::string run_micromag_report() {
  core::MicromagGateConfig cfg;
  cfg.cell_size = math::nm(8);
  core::MicromagTriangleGate gate(cfg);
  return core::format_report(core::validate_gate(gate));
}

// Arms trace + metrics + a debug-level event log around `run`.
template <typename Run>
std::string run_armed(Run run, std::ostringstream* log_sink) {
  obs::TraceSession::global().start();
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::arm();
  obs::EventLog::global().open_stream(log_sink, obs::LogLevel::kDebug);
  const std::string report = run();
  obs::EventLog::global().close();
  obs::MetricsRegistry::disarm();
  obs::TraceSession::global().stop();
  return report;
}

void disarm_all() {
  obs::TraceSession::global().stop();
  obs::TraceSession::global().clear();
  obs::MetricsRegistry::disarm();
}

std::string run_report(int jobs) {
  EngineConfig cfg;
  cfg.jobs = jobs;
  BatchRunner runner(cfg);
  const auto report =
      runner.run_truth_table(maj_factory(), hash_of(core::TriangleGateConfig{}));
  return core::format_report(report);
}

TEST(ObsDeterminism, ArmedSinksLeaveSolverOutputByteIdentical) {
  // Reference run: every sink off.
  disarm_all();
  const std::string plain = run_report(/*jobs=*/2);

  // Instrumented run: trace + metrics + debug-level event log all armed.
  std::ostringstream log_sink;
  const std::string traced =
      run_armed([] { return run_report(/*jobs=*/2); }, &log_sink);

  EXPECT_EQ(traced, plain);

  // And the instrumentation did actually observe the run: spans were
  // recorded and the engine counters moved — it was armed, just inert
  // with respect to the physics.
  EXPECT_GT(obs::TraceSession::global().event_count(), 0u);
  EXPECT_GT(
      obs::MetricsRegistry::global().counter("engine.jobs.done").value(), 0u);
  EXPECT_GT(
      obs::MetricsRegistry::global().counter("cache.misses").value(), 0u);

  obs::TraceSession::global().clear();
}

TEST(ObsDeterminism, ArmedSinksLeaveLlgTruthTableByteIdentical) {
  disarm_all();
  const std::string plain = run_micromag_report();

  std::ostringstream log_sink;
  const std::string traced = run_armed(run_micromag_report, &log_sink);

  EXPECT_EQ(traced, plain);

  // The armed solve was observed: solver spans, and LLG steps and field
  // evaluations counted (every 64th eval ran the timed per-op sweeps).
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_GT(obs::TraceSession::global().event_count(), 0u);
  EXPECT_GT(reg.counter("mag.llg.steps").value(), 0u);
  EXPECT_GT(reg.counter("mag.field_evals").value(), 16u);

  obs::TraceSession::global().clear();
}

TEST(ObsDeterminism, RepeatedInstrumentedRunsAgreeAcrossJobCounts) {
  obs::TraceSession::global().start();
  obs::MetricsRegistry::arm();
  const std::string two = run_report(/*jobs=*/2);
  const std::string four = run_report(/*jobs=*/4);
  obs::MetricsRegistry::disarm();
  obs::TraceSession::global().stop();
  obs::TraceSession::global().clear();
  EXPECT_EQ(two, four);
}

}  // namespace
}  // namespace swsim::engine
