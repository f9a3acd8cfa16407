#include "mag/kernels/sweep.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace swsim::mag::kernels {

void axpy(SoaVec& out, const SoaVec& base, double s, const SoaVec& k,
          std::size_t b, std::size_t e) {
  double* __restrict ox = out.x.data();
  double* __restrict oy = out.y.data();
  double* __restrict oz = out.z.data();
  const double* __restrict bx = base.x.data();
  const double* __restrict by = base.y.data();
  const double* __restrict bz = base.z.data();
  const double* __restrict kx = k.x.data();
  const double* __restrict ky = k.y.data();
  const double* __restrict kz = k.z.data();
  for (std::size_t i = b; i < e; ++i) {
    ox[i] = bx[i] + kx[i] * s;
    oy[i] = by[i] + ky[i] * s;
    oz[i] = bz[i] + kz[i] * s;
  }
}

double err_max_range(double h, const double (&c)[5],
                     const SoaVec* const (&k)[5], std::size_t b,
                     std::size_t e) {
  double worst = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    double ax = k[0]->x[i] * c[0];
    double ay = k[0]->y[i] * c[0];
    double az = k[0]->z[i] * c[0];
    for (int j = 1; j < 5; ++j) {
      ax += k[j]->x[i] * c[j];
      ay += k[j]->y[i] * c[j];
      az += k[j]->z[i] * c[j];
    }
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

// One interior block of V::kWidth cells at offset k of `run`: accumulate
// every op in term order, then the rhs. Interior cells have every
// existing-axis neighbour in bounds and active, and each neighbour span is
// contiguous in slot order, so exchange reads m at span base + k directly.
template <class V>
inline void fused_block(const KernelPlan& p, const double* __restrict mx,
                        const double* __restrict my,
                        const double* __restrict mz, const EvalOp* ops,
                        std::size_t nops, const KernelPlan::Run& run,
                        double* __restrict ox, double* __restrict oy,
                        double* __restrict oz, std::size_t k) {
  const std::size_t s = run.s + k;
  const V mix = V::load(mx + s);
  const V miy = V::load(my + s);
  const V miz = V::load(mz + s);
  V hx = V::zero(), hy = V::zero(), hz = V::zero();
  for (std::size_t o = 0; o < nops; ++o) {
    const EvalOp& op = ops[o];
    switch (op.kind) {
      case OpKind::kExchange: {
        V lx = V::zero(), ly = V::zero(), lz = V::zero();
        for (int a = 0; a < 3; ++a) {
          if (!p.axis_used[a]) continue;
          const std::size_t lo = run.nb[2 * a] + k;
          const std::size_t hi = run.nb[2 * a + 1] + k;
          const V w = V::set1(p.inv_d2[a]);
          lx = lx + (V::load(mx + lo) - mix) * w;
          ly = ly + (V::load(my + lo) - miy) * w;
          lz = lz + (V::load(mz + lo) - miz) * w;
          lx = lx + (V::load(mx + hi) - mix) * w;
          ly = ly + (V::load(my + hi) - miy) * w;
          lz = lz + (V::load(mz + hi) - miz) * w;
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
        if (!op.skip && (run.antenna & op.bit)) {
          const V g = V::load(op.gate->data() + s);
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
  V rx, ry, rz;
  llg_lanes(mix, miy, miz, hx, hy, hz, V::load(p.alpha.data() + s),
            V::load(p.llg_pref.data() + s), rx, ry, rz);
  rx.store(ox + s);
  ry.store(oy + s);
  rz.store(oz + s);
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

void fused_run(const KernelPlan& p, const SoaVec& m,
               const std::vector<EvalOp>& ops, SoaVec& dmdt,
               const KernelPlan::Run& run, std::size_t kb, std::size_t ke) {
  const double* mx = m.x.data();
  const double* my = m.y.data();
  const double* mz = m.z.data();
  double* ox = dmdt.x.data();
  double* oy = dmdt.y.data();
  double* oz = dmdt.z.data();
  const EvalOp* op0 = ops.data();
  const std::size_t nops = ops.size();
  std::size_t k = kb;
  for (; k + SimdLane::kWidth <= ke; k += SimdLane::kWidth) {
    fused_block<SimdLane>(p, mx, my, mz, op0, nops, run, ox, oy, oz, k);
  }
  for (; k < ke; ++k) {
    fused_block<ScalarLane>(p, mx, my, mz, op0, nops, run, ox, oy, oz, k);
  }
}

void fused_edge(const KernelPlan& p, const SoaVec& m,
                const std::vector<EvalOp>& ops, SoaVec& dmdt, std::size_t eb,
                std::size_t ee) {
  const std::uint32_t* edge = p.edge_slots.data();
  const double* mx = m.x.data();
  const double* my = m.y.data();
  const double* mz = m.z.data();
  const EvalOp* op0 = ops.data();
  const std::size_t nops = ops.size();
  for (std::size_t j = eb; j < ee; ++j) {
    const std::size_t s = edge[j];
    const double mix = mx[s], miy = my[s], miz = mz[s];
    double hx = 0.0, hy = 0.0, hz = 0.0;
    for (std::size_t o = 0; o < nops; ++o) {
      const EvalOp& op = op0[o];
      switch (op.kind) {
        case OpKind::kExchange: {
          const std::uint32_t* nbp = &p.nb[6 * s];
          double lx = 0.0, ly = 0.0, lz = 0.0;
          for (int k = 0; k < 6; ++k) {
            const std::size_t s2 = nbp[k];
            const double w = p.inv_d2[k >> 1];
            lx += (mx[s2] - mix) * w;
            ly += (my[s2] - miy) * w;
            lz += (mz[s2] - miz) * w;
          }
          hx += lx * op.pref;
          hy += ly * op.pref;
          hz += lz * op.pref;
          break;
        }
        case OpKind::kAnisotropy: {
          const double d = mix * op.ax + miy * op.ay + miz * op.az;
          const double sc = op.pref * d;
          hx += op.ax * sc;
          hy += op.ay * sc;
          hz += op.az * sc;
          break;
        }
        case OpKind::kThinFilmDemag:
          hz -= p.ms[s] * miz;
          break;
        case OpKind::kUniformZeeman:
          hx += op.dx;
          hy += op.dy;
          hz += op.dz;
          break;
        case OpKind::kAntenna:
          if (!op.skip && (p.antenna_bits[s] & op.bit)) {
            hx += op.dx;
            hy += op.dy;
            hz += op.dz;
          }
          break;
        case OpKind::kThermal:
          if (!op.skip) {
            hx += op.pref * op.noise->x[s];
            hy += op.pref * op.noise->y[s];
            hz += op.pref * op.noise->z[s];
          }
          break;
      }
    }
    ScalarLane rx, ry, rz;
    llg_lanes(ScalarLane{mix}, ScalarLane{miy}, ScalarLane{miz},
              ScalarLane{hx}, ScalarLane{hy}, ScalarLane{hz},
              ScalarLane{p.alpha[s]}, ScalarLane{p.llg_pref[s]}, rx, ry, rz);
    dmdt.x[s] = rx.v;
    dmdt.y[s] = ry.v;
    dmdt.z[s] = rz.v;
  }
}

void term_sweep(const KernelPlan& p, const SoaVec& m, const EvalOp& op,
                SoaVec& h, std::size_t sb, std::size_t se) {
  const double* mx = m.x.data();
  const double* my = m.y.data();
  const double* mz = m.z.data();
  double* hx = h.x.data();
  double* hy = h.y.data();
  double* hz = h.z.data();
  switch (op.kind) {
    case OpKind::kExchange:
      for (std::size_t s = sb; s < se; ++s) {
        const double mix = mx[s], miy = my[s], miz = mz[s];
        const std::uint32_t* nbp = &p.nb[6 * s];
        double lx = 0.0, ly = 0.0, lz = 0.0;
        for (int k = 0; k < 6; ++k) {
          const std::size_t s2 = nbp[k];
          const double w = p.inv_d2[k >> 1];
          lx += (mx[s2] - mix) * w;
          ly += (my[s2] - miy) * w;
          lz += (mz[s2] - miz) * w;
        }
        hx[s] += lx * op.pref;
        hy[s] += ly * op.pref;
        hz[s] += lz * op.pref;
      }
      break;
    case OpKind::kAnisotropy:
      for (std::size_t s = sb; s < se; ++s) {
        const double d = mx[s] * op.ax + my[s] * op.ay + mz[s] * op.az;
        const double sc = op.pref * d;
        hx[s] += op.ax * sc;
        hy[s] += op.ay * sc;
        hz[s] += op.az * sc;
      }
      break;
    case OpKind::kThinFilmDemag:
      for (std::size_t s = sb; s < se; ++s) hz[s] -= p.ms[s] * mz[s];
      break;
    case OpKind::kUniformZeeman:
      for (std::size_t s = sb; s < se; ++s) {
        hx[s] += op.dx;
        hy[s] += op.dy;
        hz[s] += op.dz;
      }
      break;
    case OpKind::kAntenna:
      // Region slot list, not the slot range: the drive's whole point is
      // to touch only the cells the antenna powers.
      if (!op.skip) {
        for (const std::uint32_t s : *op.cells) {
          hx[s] += op.dx;
          hy[s] += op.dy;
          hz[s] += op.dz;
        }
      }
      break;
    case OpKind::kThermal:
      if (!op.skip) {
        for (std::size_t s = sb; s < se; ++s) {
          hx[s] += op.pref * op.noise->x[s];
          hy[s] += op.pref * op.noise->y[s];
          hz[s] += op.pref * op.noise->z[s];
        }
      }
      break;
  }
}

void rhs_sweep(const KernelPlan& p, const SoaVec& m, const SoaVec& h,
               SoaVec& dmdt, std::size_t sb, std::size_t se) {
  for (std::size_t s = sb; s < se; ++s) {
    ScalarLane rx, ry, rz;
    llg_lanes(ScalarLane{m.x[s]}, ScalarLane{m.y[s]}, ScalarLane{m.z[s]},
              ScalarLane{h.x[s]}, ScalarLane{h.y[s]}, ScalarLane{h.z[s]},
              ScalarLane{p.alpha[s]}, ScalarLane{p.llg_pref[s]}, rx, ry, rz);
    dmdt.x[s] = rx.v;
    dmdt.y[s] = ry.v;
    dmdt.z[s] = rz.v;
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
