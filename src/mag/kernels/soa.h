// Structure-of-arrays scratch storage for the LLG hot loops.
//
// math::Field<Vec3> stores xyzxyz... over the whole grid — fine as the
// public value type, but the stride-3 layout defeats auto-vectorization,
// and most of a gate's grid is vacuum. SoaVec keeps three contiguous
// double arrays indexed by active slot (KernelPlan::active). Conversion
// to and from the AoS field happens only at solve boundaries, never
// inside a step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/field.h"

namespace swsim::mag::kernels {

struct SoaVec {
  std::vector<double> x, y, z;

  std::size_t size() const { return x.size(); }

  // Sizes (and zeroes) all three arrays.
  void assign_zero(std::size_t n) {
    x.assign(n, 0.0);
    y.assign(n, 0.0);
    z.assign(n, 0.0);
  }
};

// dst[s] = src[cells[s]] for every slot s (dst is resized to cells.size()).
void gather(SoaVec& dst, const swsim::math::VectorField& src,
            const std::vector<std::uint32_t>& cells);
// dst[cells[s]] = src[s]; cells outside the list are left untouched.
void scatter(const SoaVec& src, swsim::math::VectorField& dst,
             const std::vector<std::uint32_t>& cells);

}  // namespace swsim::mag::kernels
