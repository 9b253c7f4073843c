#include "secureview/workflow_exact.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "privacy/safety_memo.h"
#include "privacy/verdict_cache.h"
#include "secureview/from_workflow.h"

namespace provview {

WorkflowExactResult SolveExactForWorkflow(const Workflow& workflow,
                                          const WorkflowExactOptions& options) {
  WorkflowExactResult out;

  // One shared memo per private module, every one bound to its own
  // namespace of one verdict cache private to this call, which the
  // derivation fills.
  std::vector<std::shared_ptr<SafetyMemo>> memos;
  if (options.kind == ConstraintKind::kSet) {
    auto cache = std::make_shared<VerdictCache>();
    memos.resize(static_cast<size_t>(workflow.num_modules()));
    for (int i : workflow.PrivateModuleIndices()) {
      uint32_t ns = cache->RegisterNamespace(
          workflow.module(i).name() + "/exact");
      memos[static_cast<size_t>(i)] = std::make_shared<SafetyMemo>(
          workflow.module(i), Module::kDefaultMaterializeRows, cache, ns);
    }
  }

  std::vector<int64_t> gammas(static_cast<size_t>(workflow.num_modules()),
                              options.gamma);
  out.instance = InstanceFromWorkflow(workflow, gammas, options.kind, memos);

  ExactOptions exact = options.exact;
  std::vector<int> useless = UselessAttrs(out.instance);
  exact.fix_visible.insert(exact.fix_visible.end(), useless.begin(),
                           useless.end());
  out.fixed_attrs = std::move(useless);

  out.result = SolveExact(out.instance, exact);

  // A usable solution exists when the solve completed, or when a trip
  // still carried a feasible incumbent (finite proven gap).
  const bool have_solution =
      out.result.status.ok() ||
      (!out.result.status.ok() && std::isfinite(out.result.gap));
  if (have_solution) {
    out.semantics_verified = VerifySolutionSemantics(
        workflow, out.result.solution, options.gamma);
  }
  return out;
}

}  // namespace provview
