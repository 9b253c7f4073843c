// Dense two-phase primal simplex. Designed for the moderate-size
// relaxations produced by the Secure-View encoders (up to a few thousand
// variables/constraints): full-tableau representation, Dantzig pricing with
// a Bland's-rule fallback to guarantee termination, explicit artificial
// variables for ≥/= rows.
#ifndef PROVVIEW_LP_SIMPLEX_H_
#define PROVVIEW_LP_SIMPLEX_H_

#include "common/exec_control.h"
#include "lp/linear_program.h"

namespace provview {

/// Tuning knobs for the simplex solver.
struct SimplexOptions {
  /// Cooperative deadline/cancel token, polled every kControlStride pivots;
  /// a tripped control surfaces as its typed Status (DEADLINE_EXCEEDED /
  /// RESOURCE_EXHAUSTED) instead of an unbounded pivot loop.
  const ExecControl* control = nullptr;
};

/// Solves `lp` to optimality (minimization). Statuses: OK (optimal),
/// Infeasible, Unbounded, Timeout (iteration budget exhausted).
LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options = {});

}  // namespace provview

#endif  // PROVVIEW_LP_SIMPLEX_H_
