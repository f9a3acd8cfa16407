#include "mag/field_term.h"

#include <limits>

namespace swsim::mag {

double FieldTerm::energy(const System&, const VectorField&) const {
  return std::numeric_limits<double>::quiet_NaN();
}

void FieldTerm::advance_step(double) {}

std::function<void()> FieldTerm::checkpoint() { return {}; }

bool FieldTerm::compile_kernel(const System&, kernels::TermOp&) const {
  return false;
}

}  // namespace swsim::mag
