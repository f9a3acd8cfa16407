#include "mag/kernels/context.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "engine/thread_pool.h"
#include "mag/kernels/runtime.h"
#include "mag/thermal_field.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "robust/watchdog.h"

namespace swsim::mag::kernels {

using swsim::math::kTwoPi;

SolveContext::SolveContext(std::unique_ptr<KernelPlan> plan)
    : plan_(std::move(plan)) {
  const std::size_t n = plan_->slots();
  m_.assign_zero(n);
  tmp_.assign_zero(n);
  k1_.assign_zero(n);
  k2_.assign_zero(n);
  k3_.assign_zero(n);
  k4_.assign_zero(n);
  k5_.assign_zero(n);
  k6_.assign_zero(n);
  h_.assign_zero(n);
  eval_ops_.reserve(plan_->ops.size());
  op_us_carry_.assign(plan_->ops.size(), 0.0);
}

std::unique_ptr<SolveContext> SolveContext::create(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms) {
  auto plan = build_plan(sys, terms);
  if (!plan) return nullptr;
  return std::unique_ptr<SolveContext>(new SolveContext(std::move(plan)));
}

void SolveContext::pfor(std::size_t n, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  if (engine::ThreadPool* pool = intra_pool()) {
    pool->parallel_for(n, grain, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

void SolveContext::load_m(const swsim::math::VectorField& m) {
  gather(m_, m, plan_->active);
  advanced_ = false;
}

void SolveContext::store_m(swsim::math::VectorField& m) {
  if (advanced_) {
    // x + 0.0 over the whole grid: -0.0 becomes +0.0, every other value
    // (vacuum or not — magnetic cells are overwritten next) is unchanged.
    for (swsim::math::Vec3& v : m.data()) {
      v.x += 0.0;
      v.y += 0.0;
      v.z += 0.0;
    }
    advanced_ = false;
  }
  scatter(m_, m, plan_->active);
}

void SolveContext::poke_nan() {
  if (plan_->slots() > 0) m_.x[0] = std::numeric_limits<double>::quiet_NaN();
}

robust::Status SolveContext::scan(double norm_drift_tol) const {
  for (std::size_t s = 0; s < plan_->slots(); ++s) {
    const swsim::math::Vec3 v{m_.x[s], m_.y[s], m_.z[s]};
    if (!robust::cell_healthy(v, norm_drift_tol)) {
      return robust::cell_fault(v, plan_->active[s], norm_drift_tol);
    }
  }
  return robust::Status::ok();
}

void SolveContext::renormalize() {
  pfor(plan_->slots(), kSlotGrain, [&](std::size_t b, std::size_t e) {
    renormalize_range(m_, b, e);
  });
}

void SolveContext::resolve_ops(double t) {
  eval_ops_.clear();
  for (const TermOp& op : plan_->ops) {
    EvalOp e;
    e.kind = op.kind;
    switch (op.kind) {
      case OpKind::kExchange:
        e.pref = op.pref;
        break;
      case OpKind::kAnisotropy:
        e.pref = op.pref;
        e.ax = op.ax;
        e.ay = op.ay;
        e.az = op.az;
        break;
      case OpKind::kThinFilmDemag:
        break;
      case OpKind::kUniformZeeman:
        e.dx = op.hx;
        e.dy = op.hy;
        e.dz = op.hz;
        break;
      case OpKind::kAntenna: {
        e.bit = op.bit;
        e.gate = op.gate.data();
        const double env = (*op.envelope)(t);
        if (env == 0.0) {
          // Reference accumulate() returns before touching h.
          e.skip = true;
          break;
        }
        // Exactly the reference drive: direction * (A * env * sin(w t + p)),
        // the scalar factor collapsed first as in the Vec3 * double operator.
        const double s =
            op.amplitude * env * std::sin(kTwoPi * op.frequency * t + op.phase);
        e.dx = op.ax * s;
        e.dy = op.ay * s;
        e.dz = op.az * s;
        break;
      }
      case OpKind::kThermal:
        // Draws the step's noise on its first evaluation, exactly where
        // the reference accumulate() would.
        e.noise = op.thermal->noise(*plan_->sys, e.pref);
        e.skip = e.noise == nullptr;
        break;
    }
    eval_ops_.push_back(e);
  }
}

void SolveContext::sweep_all(const SoaVec& state, const EvalOp* ops,
                             std::size_t nops, const SweepIo& io) {
  // The domain is interior cells in run-table order, then edge slots;
  // chunk boundaries depend only on the plan, so any thread count slices
  // the same work the same way, and every slot is written by one chunk.
  pfor(plan_->slots(), kSlotGrain, [&](std::size_t b, std::size_t e) {
    sweep(*plan_, state, ops, nops, io, b, e);
  });
}

void SolveContext::eval(const SoaVec& state, double t, SoaVec& dmdt) {
  resolve_ops(t);
  const bool sampled = obs::metrics_armed() && !eval_ops_.empty() &&
                       (eval_count_ % kSamplePeriod == 0);
  ++eval_count_;
  if (!sampled) {
    sweep_all(state, eval_ops_.data(), eval_ops_.size(),
              SweepIo{nullptr, nullptr, &dmdt});
    return;
  }
  // Attribution: each op alone, from and into the field buffer, timed;
  // then the rhs from the buffer. A cell's field takes the fused sweep's
  // values in the fused sweep's order, only staged through memory.
  // The counters count whole microseconds; each op carries the fraction
  // over to its next sample instead of dropping it.
  for (std::size_t o = 0; o < eval_ops_.size(); ++o) {
    const double t0 = obs::now_us();
    sweep_all(state, &eval_ops_[o], 1,
              SweepIo{o == 0 ? nullptr : &h_, &h_, nullptr});
    double& us = op_us_carry_[o];
    us += obs::now_us() - t0;
    const auto whole = static_cast<std::uint64_t>(us);
    plan_->op_us[o]->add(whole);
    us -= static_cast<double>(whole);
  }
  sweep_all(state, nullptr, 0, SweepIo{&h_, nullptr, &dmdt});
}

double SolveContext::err_max(double h, const double (&c)[5],
                             const SoaVec* const (&k)[5]) {
  const std::size_t n = plan_->slots();
  if (n == 0) return 0.0;
  const std::size_t chunks = (n + kSlotGrain - 1) / kSlotGrain;
  std::vector<double> partial(chunks, 0.0);
  pfor(n, kSlotGrain, [&](std::size_t b, std::size_t e) {
    partial[b / kSlotGrain] = err_max_range(h, c, k, b, e);
  });
  // Chunk-order fold; max of non-NaN partials is schedule-independent.
  double worst = 0.0;
  for (const double p : partial) worst = std::max(worst, p);
  return worst;
}

}  // namespace swsim::mag::kernels
