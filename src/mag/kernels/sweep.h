// The vectorizable inner loops of the kernel path.
//
// Every function here is written against the bit-exactness contract: for
// each magnetic cell it performs the same floating-point operations, in
// the same order, with the same association, as the scalar reference path
// in llg.cpp / the field terms. SIMD lanes hold different cells, never
// different terms of one cell's accumulation, so vectorization preserves
// the per-cell operation sequence exactly. See docs/PERFORMANCE.md for the
// argument; tests/test_mag_kernels.cpp holds it to byte identity.
//
// All state is slot-indexed (KernelPlan::active) and all ranges are
// half-open. Callers parallelize by chunking the ranges with fixed grain —
// the loops only ever write slots inside their own range, so any chunk
// schedule produces identical bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mag/kernels/plan.h"
#include "mag/kernels/soa.h"

namespace swsim::mag::kernels {

// A TermOp resolved at one evaluation time t: the antenna drive collapses
// to one precomputed vector (or a skip flag while its envelope is zero).
struct EvalOp {
  OpKind kind{};
  double pref = 0.0;              // exchange / anisotropy; thermal sigma
  double ax = 0, ay = 0, az = 0;  // anisotropy axis
  double dx = 0, dy = 0, dz = 0;  // zeeman field or antenna drive at t
  bool skip = false;              // antenna with env(t) == 0, silent thermal
  std::uint64_t bit = 0;          // antenna: TermOp::bit
  const double* gate = nullptr;   // antenna: per-slot 1.0/0.0 coverage
  const SoaVec* noise = nullptr;  // thermal: this step's per-slot draw
};

// Where a sweep's per-cell field starts and where it goes. The fused
// evaluation starts every cell at +0.0 and applies the LLG rhs into dmdt.
// The sampled attribution runs one op per sweep from and into the field
// buffer, then a sweep with no ops from that buffer into dmdt.
struct SweepIo {
  const SoaVec* h_in = nullptr;  // nullptr: accumulators start at +0.0
  SoaVec* h_out = nullptr;       // non-null: store the field here...
  SoaVec* dmdt = nullptr;        // ...otherwise the LLG rhs here
};

// c0*k0[i] + c1*k1[i] + ..., left-associated, per component.
template <int N>
inline void weighted_sum(const double (&c)[N], const SoaVec* const (&k)[N],
                         std::size_t i, double& ax, double& ay, double& az) {
  ax = k[0]->x[i] * c[0];
  ay = k[0]->y[i] * c[0];
  az = k[0]->z[i] * c[0];
  for (int j = 1; j < N; ++j) {  // N is a constant: fully unrolled
    ax += k[j]->x[i] * c[j];
    ay += k[j]->y[i] * c[j];
    az += k[j]->z[i] * c[j];
  }
}

// out = base + (c0*k0 + c1*k1 + ...) * h, slot range [b, e) — the shape
// of every stage combination in the reference steppers (a coefficient of
// exactly 1.0 reproduces a bare "k[i]" operand: x * 1.0 == x bitwise).
template <int N>
void combine_range(SoaVec& out, const SoaVec& base, double h,
                   const double (&c)[N], const SoaVec* const (&k)[N],
                   std::size_t b, std::size_t e) {
  double* ox = out.x.data();
  double* oy = out.y.data();
  double* oz = out.z.data();
  const double* bx = base.x.data();
  const double* by = base.y.data();
  const double* bz = base.z.data();
  for (std::size_t i = b; i < e; ++i) {
    double ax, ay, az;
    weighted_sum(c, k, i, ax, ay, az);
    ox[i] = bx[i] + ax * h;
    oy[i] = by[i] + ay * h;
    oz[i] = bz[i] + az * h;
  }
}

// max over [b, e) of |h * (c0*k0 + c1*k1 + ... + c4*k4)| per cell — the
// RKF45 embedded-error reduction. NaN norms are skipped exactly as the
// reference's std::max does, so the result is chunk-order independent.
double err_max_range(double h, const double (&c)[5],
                     const SoaVec* const (&k)[5], std::size_t b,
                     std::size_t e);

// The field sweep over positions [b, e) of the plan's cell order: interior
// run cells in run-table order (positions [0, interior_total)), then edge
// slots. Per cell: start the field per io, add ops[0..nops) in order, then
// store the field or the LLG rhs at that slot only. Interior cells take
// SIMD-width blocks and address exchange neighbours as span base + offset;
// edge cells and run remainders take the same per-cell code one cell at a
// time, edge cells through the six-entry neighbour-slot table.
void sweep(const KernelPlan& p, const SoaVec& m, const EvalOp* ops,
           std::size_t nops, const SweepIo& io, std::size_t b, std::size_t e);

// m[s] = normalized(m[s]) over slots [b, e): v / |v| for |v| > 0, else v
// unchanged (NaN stays NaN), exactly math::normalized.
void renormalize_range(SoaVec& m, std::size_t b, std::size_t e);

}  // namespace swsim::mag::kernels
