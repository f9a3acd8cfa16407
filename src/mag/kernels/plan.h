// The kernel plan: everything about a (System, term set) pair that can be
// precomputed once and reused every step.
//
// The unit of the plan is the *active slot*: slot s is the s-th magnetic
// cell in ascending grid order (`active[s]` is its grid index). Solver
// state and every per-cell table below are indexed by slot, so stage,
// field, and tail loops sweep only the magnet, never vacuum.
//
//   * per-slot alpha, the LLG prefactor -gamma mu0/(1+alpha^2), and the
//     local Ms (for the thin-film demag op);
//   * the exchange neighbour table for edge slots: six slot indices per
//     slot in the reference path's -x,+x,-y,+y,-z,+z order, with the
//     self-slot standing in for absent/vacuum neighbours (the self term
//     contributes an exact +0.0, bit-identical to skipping the neighbour);
//     weights are the three per-axis 1/d^2 constants, not per-neighbour
//     loads;
//   * the interior-run table: maximal stride-1 x ranges whose every
//     existing-axis neighbour is active. A run is contiguous in slot order,
//     and because every neighbour of an interior cell is active, so are
//     its -y/+y (and -z/+z) neighbour spans: each run stores the slot base
//     of all six spans, and the fused SIMD sweep addresses neighbours as
//     base + offset with no tables. Everything else is an "edge" slot on
//     the scalar table path. Both paths execute the identical per-cell
//     operation sequence, so the split is invisible in the output bytes;
//   * the lowered TermOps in term order, plus per-op metric counters for
//     the sampled "mag.term.<name>.us" attribution;
//   * per antenna op, a per-slot 1.0/0.0 gate that every sweep selects
//     on, and per-run coverage bits (one per antenna, the first 64) so
//     runs outside an antenna's region skip that op entirely.
//
// build_plan returns nullptr when any term refuses to compile; the solver
// then stays on the scalar reference path for this term set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mag/field_term.h"
#include "mag/kernels/term_op.h"
#include "mag/system.h"

namespace swsim::obs {
class Counter;
}

namespace swsim::mag::kernels {

struct KernelPlan {
  // Staleness signature. The System address plus its mutation revision
  // catches set_ms_scale/set_alpha_field between steps; the mask content
  // copy guards the (pathological) case of a different System recreated
  // at the same address.
  const System* sys = nullptr;
  std::uint64_t revision = 0;
  swsim::math::Mask mask;
  std::vector<const FieldTerm*> term_sig;

  std::vector<std::uint32_t> active;   // slot -> grid index, ascending
  std::vector<double> alpha;           // per slot
  std::vector<double> llg_pref;        // per slot
  std::vector<double> ms;              // per slot

  bool has_exchange = false;
  std::vector<std::uint32_t> nb;       // 6 slot indices per slot
  double inv_d2[3] = {0.0, 0.0, 0.0};  // per-axis 1/dx^2, 1/dy^2, 1/dz^2
  bool axis_used[3] = {false, false, false};    // grid dimension > 1
  std::ptrdiff_t axis_stride[3] = {0, 0, 0};    // flat index step per axis

  // Interior runs: grid cells [b, e) = slots [s, s + (e - b)), every cell
  // active with all existing-axis neighbours active. nb[2a] / nb[2a + 1]
  // is the slot of the -axis / +axis neighbour of the run's first cell;
  // the neighbour of cell b + k sits at nb[...] + k (unused axes, and
  // runs without an exchange op, hold s). `antenna` holds the TermOp::bit
  // of every antenna op that drives at least one cell of the run.
  struct Run {
    std::uint32_t b = 0;
    std::uint32_t e = 0;
    std::uint32_t s = 0;
    std::uint32_t nb[6] = {0, 0, 0, 0, 0, 0};
    std::uint64_t antenna = 0;
  };
  std::vector<Run> runs;
  std::vector<std::uint64_t> run_prefix;  // runs.size()+1 cumulative lengths
  std::size_t interior_total = 0;         // cells covered by runs
  std::vector<std::uint32_t> edge_slots;  // active slots not in any run

  std::vector<TermOp> ops;             // term order
  std::vector<obs::Counter*> op_us;    // "mag.term.<name>.us", per op

  std::size_t slots() const { return active.size(); }

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const;
};

std::unique_ptr<KernelPlan> build_plan(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

}  // namespace swsim::mag::kernels
