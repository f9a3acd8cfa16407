// Per-stepper solve context: a compiled KernelPlan plus the slot-indexed
// solver state (m_) and every SoA scratch buffer a stepper needs (tmp_,
// stage buffers k1..k6, one field buffer for the sampled attribution).
// Every buffer holds one entry per active slot, and every loop here —
// field eval, stage combination, error norm, renormalization, health scan
// — sweeps slots only.
//
// The state is resident: Simulation::run gathers the AoS magnetization
// into m_ once (load_m), steps it for the whole solve, and scatters it
// back (store_m) only at the boundaries where the AoS field is read — the
// energy-watchdog cadence, the end of the run, and any exception leaving
// it. Stepper::step keeps a gather/step/scatter wrapper for callers that
// own an AoS field.
//
// The context is cached by Stepper and rebuilt when its plan goes stale
// (different System, mutated per-cell fields, changed term set) — see
// KernelPlan::matches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mag/kernels/plan.h"
#include "mag/kernels/soa.h"
#include "mag/kernels/sweep.h"
#include "robust/status.h"

namespace swsim::mag::kernels {

class SolveContext {
 public:
  // Returns nullptr when any term refuses to lower (the solver then stays
  // on the scalar reference path).
  static std::unique_ptr<SolveContext> create(
      const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const {
    return plan_->matches(sys, terms);
  }

  const KernelPlan& plan() const { return *plan_; }

  // AoS <-> slot state at the solve boundary: load_m gathers the magnetic
  // cells into m_; store_m scatters them back. Vacuum cells are never
  // integrated. The reference steppers add an exact +0.0 to them on every
  // accepted step — the identity for every value but -0.0 — so once
  // mark_advanced() has been called since the last load/store, store_m
  // replays that addition over the grid before scattering.
  void load_m(const swsim::math::VectorField& m);
  void store_m(swsim::math::VectorField& m);
  void mark_advanced() { advanced_ = true; }

  // One effective-field + rhs evaluation of `state` at time t into dmdt.
  // When metrics are armed, every kSamplePeriod-th evaluation runs the
  // same sweep one op at a time into the field buffer, each op under its
  // "mag.term.<name>.us" timer, then a sweep with no ops from the buffer
  // into dmdt — bit-exact, so sampling never perturbs the physics.
  void eval(const SoaVec& state, double t, SoaVec& dmdt);

  // out = base + k * s over every slot: combine<1> with coefficient 1.0.
  void stage1(SoaVec& out, const SoaVec& base, double s, const SoaVec& k) {
    const double one[1] = {1.0};
    const SoaVec* const ks[1] = {&k};
    combine(out, base, s, one, ks);
  }

  // out = base + (c0*k0 + ...) * h over every slot.
  template <int N>
  void combine(SoaVec& out, const SoaVec& base, double h, const double (&c)[N],
               const SoaVec* const (&k)[N]) {
    pfor(plan_->slots(), kSlotGrain, [&](std::size_t b, std::size_t e) {
      combine_range(out, base, h, c, k, b, e);
    });
  }

  // RKF45 max-norm error of h * (c0*k0 + ... + c4*k4) over every slot;
  // per-chunk maxima are folded in chunk order.
  double err_max(double h, const double (&c)[5], const SoaVec* const (&k)[5]);

  // Step tail on the resident state. poke_nan poisons the first magnetic
  // cell (the fault-injection hook); scan is robust::scan_magnetization
  // over the slots, reporting the grid cell index; renormalize is
  // mag::renormalize.
  void poke_nan();
  robust::Status scan(double norm_drift_tol) const;
  void renormalize();

  // State and stage buffers, exposed to the stepper loops in llg.cpp.
  SoaVec m_, tmp_, k1_, k2_, k3_, k4_, k5_, k6_;

  // Fixed chunk size — part of the determinism contract: boundaries
  // depend on the plan, never on the job count.
  static constexpr std::size_t kSlotGrain = 1024;
  // Per-op timing: a sampled evaluation sweeps once per op plus once for
  // the rhs, so sampling every 64th keeps the armed cost near 1%.
  static constexpr std::uint64_t kSamplePeriod = 64;

 private:
  explicit SolveContext(std::unique_ptr<KernelPlan> plan);

  // Runs fn over [0, n) — serial, or chunked on the intra-solve pool.
  void pfor(std::size_t n, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)>& fn);

  void resolve_ops(double t);  // TermOps -> EvalOps at time t

  // kernels::sweep over every cell of the plan.
  void sweep_all(const SoaVec& state, const EvalOp* ops, std::size_t nops,
                 const SweepIo& io);

  std::unique_ptr<KernelPlan> plan_;
  std::vector<EvalOp> eval_ops_;
  SoaVec h_;                  // sampled attribution's field buffer
  std::vector<double> op_us_carry_;  // per op: sub-microsecond remainder
  std::uint64_t eval_count_ = 0;
  bool advanced_ = false;     // m_ stepped since the last load/store
};

// Scatters a context's slot state back to an AoS field on sync() and when
// it goes out of scope — every exit path, exceptions included. A null
// context (the reference path, which steps the AoS field itself) makes
// both no-ops.
class ScatterOnExit {
 public:
  ScatterOnExit(SolveContext* c, swsim::math::VectorField& m) : c_(c), m_(m) {}
  ~ScatterOnExit() { sync(); }
  ScatterOnExit(const ScatterOnExit&) = delete;
  ScatterOnExit& operator=(const ScatterOnExit&) = delete;

  void sync() {
    if (c_) c_->store_m(m_);
  }

 private:
  SolveContext* c_;
  swsim::math::VectorField& m_;
};

}  // namespace swsim::mag::kernels
