// End-to-end exact optimization of a workflow's min-cost secure view,
// wiring the whole pruning stack together (docs/optimizer.md):
//
//   workflow --(shared-memo derivation)--> SecureViewInstance
//            --(useless-attr fixing, warm start, safety oracle)--> SolveExact
//            --(Theorem 4/8 certification)--> verified SvResult
//
// The requirement lists are derived through one SafetyMemo per private
// module, each bound to its own namespace of one VerdictCache that the
// call owns and releases on return. The B&B node oracle then answers module
// satisfaction from those lists — the memo's minimal-safe-set antichain —
// without going back to the cache. Every attribute no requirement option
// uses is pinned visible before the search, and the winner is certified
// Γ-private through the Theorem 4/8 sufficient condition.
#ifndef PROVVIEW_SECUREVIEW_WORKFLOW_EXACT_H_
#define PROVVIEW_SECUREVIEW_WORKFLOW_EXACT_H_

#include <cstdint>
#include <vector>

#include "secureview/instance.h"
#include "secureview/solvers.h"
#include "workflow/workflow.h"

namespace provview {

struct WorkflowExactOptions {
  int64_t gamma = 2;
  ConstraintKind kind = ConstraintKind::kSet;
  /// Solver knobs (warm start, oracle, threads, deadline live in here).
  ExactOptions exact;
};

struct WorkflowExactResult {
  SvResult result;
  /// The derived instance (reusable for approximation-ratio comparisons).
  SecureViewInstance instance;
  /// Attributes pinned visible before the search: those no requirement
  /// option uses (sound: hiding one can only add cost).
  std::vector<int> fixed_attrs;
  /// True when the solution was certified Γ-private (Theorem 4/8).
  bool semantics_verified = false;
};

/// Derives the instance and solves it exactly with the full pruning stack.
WorkflowExactResult SolveExactForWorkflow(
    const Workflow& workflow, const WorkflowExactOptions& options = {});

}  // namespace provview

#endif  // PROVVIEW_SECUREVIEW_WORKFLOW_EXACT_H_
