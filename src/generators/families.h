// Named instance families used by specific experiments:
//   - Example 5's fan-out family, where the union-of-standalone-optima
//     baseline is Ω(n) worse than the workflow optimum;
//   - Proposition 2's chain of one-one modules (identity → negation), for
//     the doubly-exponential possible-worlds ratio;
//   - Example 7's public-module chains (constant upstream / invertible
//     downstream), where standalone privacy fails to compose.
#ifndef PROVVIEW_GENERATORS_FAMILIES_H_
#define PROVVIEW_GENERATORS_FAMILIES_H_

#include "common/rng.h"
#include "secureview/instance.h"
#include "workflow/workflow.h"

namespace provview {

/// Example 5 as a Secure-View instance with set constraints:
/// module m: input a1 (cost 1), output a2 (cost 1 + eps) feeding all of
/// m_1..m_n; each m_i outputs b_i (cost 1) into m'. Requirements: m hides
/// a1 or a2; each m_i hides a2... (its input) or b_i; m' hides some b_i.
/// The standalone union costs n + 1 while OPT = 2 + eps.
SecureViewInstance MakeExample5Instance(int n, double eps = 0.1);

/// Proposition 2's workflow: m1 = identity, m2 = bitwise negation, both on
/// k boolean attributes. Returns the workflow; attribute ids are
/// [0,k) initial, [k,2k) middle (O1 = I2), [2k,3k) final.
struct Prop2Chain {
  CatalogPtr catalog;
  WorkflowPtr workflow;
  int k = 0;
};
Prop2Chain MakeProp2Chain(int k);

/// Example 7 (first half): public constant module feeding a private random
/// bijection on k boolean attributes. Hiding the private module's inputs
/// is standalone-safe but NOT workflow-safe while the public module stays
/// visible.
struct Example7Chain {
  CatalogPtr catalog;
  WorkflowPtr workflow;
  int constant_index = 0;   ///< the public constant module
  int bijection_index = 1;  ///< the private one-one module
  int k = 0;
};
Example7Chain MakeExample7Chain(int k, Rng* rng);

/// Example 7 (second half) / Example 8: private bijection feeding a public
/// invertible module. Hiding the private module's outputs is
/// standalone-safe but leaks through the public inverse.
struct Example7OutputChain {
  CatalogPtr catalog;
  WorkflowPtr workflow;
  int bijection_index = 0;  ///< the private one-one module
  int invertible_index = 1; ///< the public invertible module
  int k = 0;
};
Example7OutputChain MakeExample7OutputChain(int k, Rng* rng);

/// A `stages`-stage chain of random one-one modules on k boolean attributes
/// per layer — the deep-workflow shape the feasible-set fixpoint targets:
/// hiding one intermediate layer leaves every layer above it fully visible,
/// so the fixpoint forces the upstream stages and prunes the hidden stage
/// instead of walking every stage past the first at full range (E1f).
struct OneOneChain {
  CatalogPtr catalog;
  WorkflowPtr workflow;
  int stages = 0;
  int k = 0;
  /// layer_attrs[s], s in [0, stages]: the k attributes entering stage s
  /// (s = 0: initial inputs; s = stages: final outputs). Module s maps
  /// layer s to layer s + 1.
  std::vector<std::vector<AttrId>> layer_attrs;
};
OneOneChain MakeOneOneChain(int stages, int k, Rng* rng);

/// A diamond: source bijection on 2k bits fanning out to two k-bit one-one
/// branches, re-joined by a sink bijection, optionally followed by a tail
/// bijection (making the longest path 4 modules). Attribute layers:
/// x (2k, initial) -> t (2k) -> u (2k, branch outputs) -> y (2k)
/// [-> z (2k) when with_tail].
struct DiamondWorkflow {
  CatalogPtr catalog;
  WorkflowPtr workflow;
  int k = 0;
  bool with_tail = false;
  std::vector<AttrId> x, t, u, y, z;  // z empty unless with_tail
  int source_index = 0;
  int branch_a_index = 0;  ///< t[0..k) -> u[0..k)
  int branch_b_index = 0;  ///< t[k..2k) -> u[k..2k)
  int sink_index = 0;
  int tail_index = -1;  ///< -1 unless with_tail
};
DiamondWorkflow MakeDiamondWorkflow(int k, bool with_tail, Rng* rng);

}  // namespace provview

#endif  // PROVVIEW_GENERATORS_FAMILIES_H_
