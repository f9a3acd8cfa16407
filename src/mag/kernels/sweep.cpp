#include "mag/kernels/sweep.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace swsim::mag::kernels {

double err_max_range(double h, const double (&c)[5],
                     const SoaVec* const (&k)[5], std::size_t b,
                     std::size_t e) {
  double worst = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    double ax, ay, az;
    weighted_sum(c, k, i, ax, ay, az);
    const double dx = ax * h, dy = ay * h, dz = az * h;
    const double nrm = std::sqrt(dx * dx + dy * dy + dz * dz);
    worst = std::max(worst, nrm);
  }
  return worst;
}

namespace {

// ---------------------------------------------------------------------------
// Lane abstraction for the fused sweep. One lane = one cell; every
// arithmetic intrinsic below is the IEEE-754 double operation applied per
// lane, so an N-wide block computes exactly what N scalar iterations
// would. No FMA is ever emitted from these (mul and add stay separate
// instructions), keeping results identical across -march levels as long
// as contraction stays off in the scalar reference too (the default
// target has no FMA; SWSIM_NATIVE builds add -ffp-contract=off).

struct ScalarLane {
  static constexpr std::size_t kWidth = 1;
  double v;
  static ScalarLane load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static ScalarLane set1(double s) { return {s}; }
  static ScalarLane zero() { return {0.0}; }
  friend ScalarLane operator+(ScalarLane a, ScalarLane b) {
    return {a.v + b.v};
  }
  friend ScalarLane operator-(ScalarLane a, ScalarLane b) {
    return {a.v - b.v};
  }
  friend ScalarLane operator*(ScalarLane a, ScalarLane b) {
    return {a.v * b.v};
  }
  friend ScalarLane operator/(ScalarLane a, ScalarLane b) {
    return {a.v / b.v};
  }
  static ScalarLane sqrt(ScalarLane a) { return {std::sqrt(a.v)}; }
  // a where n > 0 (false for NaN), b elsewhere.
  static ScalarLane select_pos(ScalarLane n, ScalarLane a, ScalarLane b) {
    return n.v > 0.0 ? a : b;
  }
  // h + d where the gate is nonzero; h's bits untouched elsewhere.
  static ScalarLane gated_add(ScalarLane h, ScalarLane gate, ScalarLane d) {
    return gate.v != 0.0 ? ScalarLane{h.v + d.v} : h;
  }
};

#if defined(__AVX__)

struct SimdLane {
  static constexpr std::size_t kWidth = 4;
  __m256d v;
  static SimdLane load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static SimdLane set1(double s) { return {_mm256_set1_pd(s)}; }
  static SimdLane zero() { return {_mm256_setzero_pd()}; }
  friend SimdLane operator+(SimdLane a, SimdLane b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend SimdLane operator-(SimdLane a, SimdLane b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend SimdLane operator*(SimdLane a, SimdLane b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend SimdLane operator/(SimdLane a, SimdLane b) {
    return {_mm256_div_pd(a.v, b.v)};
  }
  static SimdLane sqrt(SimdLane a) { return {_mm256_sqrt_pd(a.v)}; }
  static SimdLane select_pos(SimdLane n, SimdLane a, SimdLane b) {
    const __m256d pos = _mm256_cmp_pd(n.v, _mm256_setzero_pd(), _CMP_GT_OQ);
    return {_mm256_blendv_pd(b.v, a.v, pos)};
  }
  static SimdLane gated_add(SimdLane h, SimdLane gate, SimdLane d) {
    const __m256d on =
        _mm256_cmp_pd(gate.v, _mm256_setzero_pd(), _CMP_NEQ_OQ);
    return {_mm256_blendv_pd(h.v, _mm256_add_pd(h.v, d.v), on)};
  }
};

#elif defined(__SSE2__) || defined(_M_X64)

struct SimdLane {
  static constexpr std::size_t kWidth = 2;
  __m128d v;
  static SimdLane load(const double* p) { return {_mm_loadu_pd(p)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  static SimdLane set1(double s) { return {_mm_set1_pd(s)}; }
  static SimdLane zero() { return {_mm_setzero_pd()}; }
  friend SimdLane operator+(SimdLane a, SimdLane b) {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend SimdLane operator-(SimdLane a, SimdLane b) {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend SimdLane operator*(SimdLane a, SimdLane b) {
    return {_mm_mul_pd(a.v, b.v)};
  }
  friend SimdLane operator/(SimdLane a, SimdLane b) {
    return {_mm_div_pd(a.v, b.v)};
  }
  static SimdLane sqrt(SimdLane a) { return {_mm_sqrt_pd(a.v)}; }
  static SimdLane select_pos(SimdLane n, SimdLane a, SimdLane b) {
    const __m128d pos = _mm_cmpgt_pd(n.v, _mm_setzero_pd());
    return {_mm_or_pd(_mm_and_pd(pos, a.v), _mm_andnot_pd(pos, b.v))};
  }
  static SimdLane gated_add(SimdLane h, SimdLane gate, SimdLane d) {
    const __m128d on = _mm_cmpneq_pd(gate.v, _mm_setzero_pd());
    const __m128d sum = _mm_add_pd(h.v, d.v);
    return {_mm_or_pd(_mm_and_pd(on, sum), _mm_andnot_pd(on, h.v))};
  }
};

#else

using SimdLane = ScalarLane;  // portable fallback: scalar blocks

#endif

// The LLG right-hand side for one lane-block, exactly llg_rhs()'s
// expression: dmdt = pref * (m x h + alpha * m x (m x h)).
template <class V>
inline void llg_lanes(V mx, V my, V mz, V hx, V hy, V hz, V alpha, V pref,
                      V& ox, V& oy, V& oz) {
  const V cx = my * hz - mz * hy;
  const V cy = mz * hx - mx * hz;
  const V cz = mx * hy - my * hx;
  const V tx = my * cz - mz * cy;
  const V ty = mz * cx - mx * cz;
  const V tz = mx * cy - my * cx;
  ox = (cx + tx * alpha) * pref;
  oy = (cy + ty * alpha) * pref;
  oz = (cz + tz * alpha) * pref;
}

// The two neighbour addressings of the per-cell kernel. An interior run's
// neighbour spans are contiguous slot ranges, so the neighbour of run
// offset k sits at the span base + k, and a lane block of cells loads
// each neighbour span stride-1. An edge slot reads its six-entry
// neighbour-slot table, whose self-slot entries stand in for absent
// neighbours. skips() is the run-level antenna shortcut: a run outside an
// antenna's region skips the op, which its all-zero gate would make a
// no-op anyway; an op without a coverage bit is never skipped.
struct RunCells {
  const KernelPlan::Run& run;
  std::size_t k;  // offset in the run
  std::size_t slot() const { return run.s + k; }
  std::size_t lo(int a) const { return run.nb[2 * a] + k; }
  std::size_t hi(int a) const { return run.nb[2 * a + 1] + k; }
  bool skips(std::uint64_t bit) const { return (bit & ~run.antenna) != 0; }
};

struct EdgeCell {
  const std::uint32_t* nb;  // the plan's neighbour-slot table
  std::size_t s;
  std::size_t slot() const { return s; }
  std::size_t lo(int a) const { return nb[6 * s + 2 * a]; }
  std::size_t hi(int a) const { return nb[6 * s + 2 * a + 1]; }
  static bool skips(std::uint64_t) { return false; }
};

// Everything one sweep reads besides the cell position.
struct Sweep {
  const KernelPlan& p;
  const double* mx;
  const double* my;
  const double* mz;
  const EvalOp* ops;
  std::size_t nops;
  const SweepIo& io;
};

// The one per-cell kernel, for one lane block of V::kWidth cells at
// c.slot(): start the field (+0.0, or the field buffer), add every op in
// term order, then store the field or the LLG rhs. Each op's arithmetic is
// written here once; every sweep of the kernel path runs it.
template <class V, class Cells>
inline void cell_block(const Sweep& w, const Cells& c) {
  const KernelPlan& p = w.p;
  const double* __restrict mx = w.mx;
  const double* __restrict my = w.my;
  const double* __restrict mz = w.mz;
  const std::size_t s = c.slot();
  const V mix = V::load(mx + s);
  const V miy = V::load(my + s);
  const V miz = V::load(mz + s);
  V hx = V::zero(), hy = V::zero(), hz = V::zero();
  if (const SoaVec* in = w.io.h_in) {
    hx = V::load(in->x.data() + s);
    hy = V::load(in->y.data() + s);
    hz = V::load(in->z.data() + s);
  }
  for (std::size_t o = 0; o < w.nops; ++o) {
    const EvalOp& op = w.ops[o];
    switch (op.kind) {
      case OpKind::kExchange: {
        V lx = V::zero(), ly = V::zero(), lz = V::zero();
        for (int a = 0; a < 3; ++a) {
          if (!p.axis_used[a]) continue;
          const std::size_t lo = c.lo(a);
          const std::size_t hi = c.hi(a);
          const V wa = V::set1(p.inv_d2[a]);
          lx = lx + (V::load(mx + lo) - mix) * wa;
          ly = ly + (V::load(my + lo) - miy) * wa;
          lz = lz + (V::load(mz + lo) - miz) * wa;
          lx = lx + (V::load(mx + hi) - mix) * wa;
          ly = ly + (V::load(my + hi) - miy) * wa;
          lz = lz + (V::load(mz + hi) - miz) * wa;
        }
        const V pref = V::set1(op.pref);
        hx = hx + lx * pref;
        hy = hy + ly * pref;
        hz = hz + lz * pref;
        break;
      }
      case OpKind::kAnisotropy: {
        const V vax = V::set1(op.ax), vay = V::set1(op.ay),
                vaz = V::set1(op.az);
        V d = mix * vax + miy * vay;
        d = d + miz * vaz;
        const V sc = V::set1(op.pref) * d;
        hx = hx + vax * sc;
        hy = hy + vay * sc;
        hz = hz + vaz * sc;
        break;
      }
      case OpKind::kThinFilmDemag:
        hz = hz - V::load(p.ms.data() + s) * miz;
        break;
      case OpKind::kUniformZeeman:
        hx = hx + V::set1(op.dx);
        hy = hy + V::set1(op.dy);
        hz = hz + V::set1(op.dz);
        break;
      case OpKind::kAntenna:
        if (!op.skip && !c.skips(op.bit)) {
          const V g = V::load(op.gate + s);
          hx = V::gated_add(hx, g, V::set1(op.dx));
          hy = V::gated_add(hy, g, V::set1(op.dy));
          hz = V::gated_add(hz, g, V::set1(op.dz));
        }
        break;
      case OpKind::kThermal:
        if (!op.skip) {
          const V sigma = V::set1(op.pref);
          hx = hx + sigma * V::load(op.noise->x.data() + s);
          hy = hy + sigma * V::load(op.noise->y.data() + s);
          hz = hz + sigma * V::load(op.noise->z.data() + s);
        }
        break;
    }
  }
  if (SoaVec* out = w.io.h_out) {
    hx.store(out->x.data() + s);
    hy.store(out->y.data() + s);
    hz.store(out->z.data() + s);
    return;
  }
  V rx, ry, rz;
  llg_lanes(mix, miy, miz, hx, hy, hz, V::load(p.alpha.data() + s),
            V::load(p.llg_pref.data() + s), rx, ry, rz);
  rx.store(w.io.dmdt->x.data() + s);
  ry.store(w.io.dmdt->y.data() + s);
  rz.store(w.io.dmdt->z.data() + s);
}

// math::normalized on one lane-block of slots starting at s:
// n = sqrt(x*x + y*y + z*z), then v / n where n > 0.
template <class V>
inline void renorm_block(double* __restrict x, double* __restrict y,
                         double* __restrict z, std::size_t s) {
  const V vx = V::load(x + s), vy = V::load(y + s), vz = V::load(z + s);
  const V n = V::sqrt(vx * vx + vy * vy + vz * vz);
  V::select_pos(n, vx / n, vx).store(x + s);
  V::select_pos(n, vy / n, vy).store(y + s);
  V::select_pos(n, vz / n, vz).store(z + s);
}

}  // namespace

void sweep(const KernelPlan& p, const SoaVec& m, const EvalOp* ops,
           std::size_t nops, const SweepIo& io, std::size_t b,
           std::size_t e) {
  const Sweep w{p, m.x.data(), m.y.data(), m.z.data(), ops, nops, io};
  const std::size_t interior = p.interior_total;
  if (b < interior) {
    const std::size_t ie = std::min(e, interior);
    const auto& pre = p.run_prefix;
    std::size_t r = static_cast<std::size_t>(
        std::upper_bound(pre.begin(), pre.end(), b) - pre.begin() - 1);
    for (std::size_t pos = b; pos < ie; ++r) {
      const KernelPlan::Run& run = p.runs[r];
      std::size_t k = pos - pre[r];
      const std::size_t ke =
          std::min<std::size_t>(run.e - run.b, k + (ie - pos));
      pos += ke - k;
      for (; k + SimdLane::kWidth <= ke; k += SimdLane::kWidth) {
        cell_block<SimdLane>(w, RunCells{run, k});
      }
      for (; k < ke; ++k) cell_block<ScalarLane>(w, RunCells{run, k});
    }
  }
  for (std::size_t j = std::max(b, interior); j < e; ++j) {
    const std::size_t s = p.edge_slots[j - interior];
    cell_block<ScalarLane>(w, EdgeCell{p.nb.data(), s});
  }
}

void renormalize_range(SoaVec& m, std::size_t b, std::size_t e) {
  double* x = m.x.data();
  double* y = m.y.data();
  double* z = m.z.data();
  std::size_t s = b;
  for (; s + SimdLane::kWidth <= e; s += SimdLane::kWidth) {
    renorm_block<SimdLane>(x, y, z, s);
  }
  for (; s < e; ++s) renorm_block<ScalarLane>(x, y, z, s);
}

}  // namespace swsim::mag::kernels
