// Workload descriptions shared by the CLI and the serve daemon.
//
// The wire-level determinism contract of `swsim serve` — a served request
// answers with the exact bytes the equivalent CLI invocation prints — only
// holds if both front-ends build their gate factories, cache keys, and
// report renderings from ONE implementation. This header is that
// implementation: plain parameter structs (no cli::Args, no JSON) that
// both `swsim truthtable`/`yield`/`batch` and the serve dispatcher map
// their inputs onto.
//
// Cache-key compatibility is part of the contract: make_truth_table_spec
// derives the same content key the CLI always has (gate kind hashed into
// the configuration hash), so a daemon pointed at a CLI run's --cache-dir
// reuses its spill files and vice versa.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/micromag_gate.h"
#include "core/variability.h"
#include "engine/batch_runner.h"

namespace swsim::serve {

// A truth-table request: gate kind plus the two geometry knobs the CLI
// exposes. width_nm defaults to the paper's 0.4 * lambda when unset.
struct GateParams {
  std::string kind;
  double lambda_nm = 55.0;
  std::optional<double> width_nm;
};

struct TruthTableSpec {
  engine::BatchRunner::GateFactory factory;
  std::uint64_t key = 0;  // content hash: cache address + quarantine key
};

// nullopt for an unknown gate kind (maj, xor, xnor, and, or, nand, nor,
// maj5, maj7 are known).
std::optional<TruthTableSpec> make_truth_table_spec(const GateParams& p);

// A Monte-Carlo yield request; defaults mirror `swsim yield`.
struct YieldParams {
  std::string kind = "maj";
  double lambda_nm = 55.0;
  std::optional<double> width_nm;
  double sigma_length_nm = 2.0;  // maps to sigma_phase via the model
  double sigma_amp = 0.05;
  std::size_t trials = 500;
};

struct YieldSpec {
  std::string kind;
  engine::BatchRunner::TriangleFactory factory;
  core::VariabilityModel model;
  std::size_t trials = 0;
};

// nullopt for an unknown gate kind (yield supports maj and xor).
std::optional<YieldSpec> make_yield_spec(const YieldParams& p);

// A micromagnetic (LLG-backend) truth-table request: the reduced-scale
// triangle gate `swsim micromag` runs, served over the same engine.
// Defaults mirror the CLI flags.
struct MicromagParams {
  std::string kind = "maj";  // maj | xor
  double lambda_nm = 50.0;
  double width_nm = 20.0;
  double cell_nm = 4.0;
  // Stop each LLG solve once the live port envelopes have settled
  // (core::MicromagGateConfig::early_stop). Detected logic is unchanged;
  // outputs agree with a full-length run within 0.01, not to the byte.
  bool early_stop = false;
};

struct MicromagSpec {
  engine::BatchRunner::GateFactory factory;
  // One-shot shared calibration (the all-zero reference solve); pass as
  // the engine's `prepare` hook so it runs once rather than once per row.
  std::function<void()> prepare;
  std::uint64_t key = 0;  // content hash of the gate configuration
  core::MicromagGateConfig config;
};

// nullopt for an unknown gate kind (micromag supports maj and xor).
std::optional<MicromagSpec> make_micromag_spec(const MicromagParams& p);

// The exact bytes `swsim yield` prints for a report (the truth-table
// counterpart is core::format_report).
std::string render_yield(const std::string& kind, const core::YieldReport& r);

}  // namespace swsim::serve
