// Per-module privacy targets Γ_i (§2.4 remark: "results and proofs remain
// unchanged when different modules have different privacy requirements")
// and non-boolean attribute domains, exercised together through the full
// pipeline: requirement derivation → optimization → certification.
#include <gtest/gtest.h>

#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"
#include "privacy/workflow_privacy.h"
#include "secureview/feasibility.h"
#include "secureview/from_workflow.h"
#include "secureview/solvers.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

TEST(HeterogeneousGammaTest, PerModuleTargetsRespected) {
  // m1 gets Γ = 4, m2/m3 get Γ = 2 (their single boolean output caps them
  // there).
  Fig1Workflow fig = MakeFig1Workflow();
  std::vector<int64_t> gammas = {4, 2, 2};
  SecureViewInstance inst =
      InstanceFromWorkflow(*fig.workflow, gammas, ConstraintKind::kSet);
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_TRUE(IsFeasible(inst, exact.solution));
  std::vector<int64_t> achieved =
      PerModuleStandaloneGamma(*fig.workflow, exact.solution.hidden);
  EXPECT_GE(achieved[0], 4);
  EXPECT_GE(achieved[1], 2);
  EXPECT_GE(achieved[2], 2);
}

TEST(HeterogeneousGammaTest, UniformOverloadEqualsPerModuleVector) {
  Fig1Workflow fig = MakeFig1Workflow();
  SecureViewInstance a =
      InstanceFromWorkflow(*fig.workflow, 2, ConstraintKind::kSet);
  SecureViewInstance b = InstanceFromWorkflow(
      *fig.workflow, std::vector<int64_t>{2, 2, 2}, ConstraintKind::kSet);
  ASSERT_EQ(a.num_modules(), b.num_modules());
  for (int i = 0; i < a.num_modules(); ++i) {
    EXPECT_EQ(a.modules[static_cast<size_t>(i)].set_options.size(),
              b.modules[static_cast<size_t>(i)].set_options.size());
  }
  EXPECT_NEAR(SolveExact(a).cost, SolveExact(b).cost, 1e-9);
}

TEST(HeterogeneousGammaTest, HigherTargetNeverCheaper) {
  Fig1Workflow fig = MakeFig1Workflow();
  SecureViewInstance low = InstanceFromWorkflow(
      *fig.workflow, std::vector<int64_t>{2, 2, 2}, ConstraintKind::kSet);
  SecureViewInstance high = InstanceFromWorkflow(
      *fig.workflow, std::vector<int64_t>{4, 2, 2}, ConstraintKind::kSet);
  EXPECT_LE(SolveExact(low).cost, SolveExact(high).cost + 1e-9);
}

// ---------------------------------------------------------------------
// Non-boolean domains through the privacy stack.
// ---------------------------------------------------------------------
TEST(NonBooleanDomainTest, CheckerHandlesTernaryDomains) {
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId x = catalog->Add("x", 3);
  AttrId y = catalog->Add("y", 3);
  // y = (x + 1) mod 3: a ternary bijection.
  ModulePtr m = MakeShiftBijection("inc3", catalog, {x}, {y}, 1);
  // Hiding the output: Γ = 3 (full range).
  Bitset64 hide_out = Bitset64::Of(2, {static_cast<int>(y)});
  EXPECT_EQ(MaxStandaloneGamma(*m, hide_out.Complement()), 3);
  // Hiding the input: also Γ = 3 for a bijection.
  Bitset64 hide_in = Bitset64::Of(2, {static_cast<int>(x)});
  EXPECT_EQ(MaxStandaloneGamma(*m, hide_in.Complement()), 3);
  // Nothing hidden: Γ = 1.
  EXPECT_EQ(MaxStandaloneGamma(*m, Bitset64::All(2)), 1);
}

TEST(NonBooleanDomainTest, CountingMatchesBruteForceOnMixedDomains) {
  // Module with a ternary input, a binary input, and a ternary output.
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId a = catalog->Add("a", 3);
  AttrId b = catalog->Add("b", 2);
  AttrId c = catalog->Add("c", 3);
  Rng rng(15);
  ModulePtr m = MakeRandomFunction("f", catalog, {a, b}, {c}, &rng);
  Relation rel = m->FullRelation();
  for (uint64_t mask = 0; mask < 8; ++mask) {
    Bitset64 visible(3);
    for (int i = 0; i < 3; ++i) {
      if ((mask >> i) & 1u) visible.Set(i);
    }
    StandaloneWorlds worlds =
        EnumerateStandaloneWorldsNaive(rel, m->inputs(), m->outputs(), visible);
    EXPECT_EQ(worlds.MinOutSize(),
              MaxStandaloneGamma(rel, m->inputs(), m->outputs(), visible))
        << visible.ToString();
  }
}

TEST(NonBooleanDomainTest, SafeSearchOnTernaryModule) {
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId a = catalog->Add("a", 3, 2.0);
  AttrId b = catalog->Add("b", 3, 1.0);
  Rng rng(77);
  ModulePtr m = MakeRandomBijection("tern", catalog, {a}, {b}, &rng);
  // Γ = 3 requires hiding a or b; min cost picks b.
  MinCostSafeResult r = MinCostSafeHiddenSet(*m, 3);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.hidden, Bitset64::Of(2, {static_cast<int>(b)}));
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
  // Γ = 4 exceeds the range: impossible.
  EXPECT_FALSE(MinCostSafeHiddenSet(*m, 4).found);
}

TEST(NonBooleanDomainTest, WorkflowWithMixedDomainsEndToEnd) {
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId s = catalog->Add("s", 3, 1.0);
  AttrId t = catalog->Add("t", 3, 2.0);
  AttrId u = catalog->Add("u", 3, 3.0);
  Workflow w(catalog);
  Rng rng(3);
  w.AddModule(MakeRandomBijection("first", catalog, {s}, {t}, &rng));
  w.AddModule(MakeShiftBijection("second", catalog, {t}, {u}, 2));
  ASSERT_TRUE(w.Validate().ok());
  SecureViewInstance inst =
      InstanceFromWorkflow(w, 3, ConstraintKind::kSet);
  SvResult exact = SolveExact(inst);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_TRUE(VerifySolutionSemantics(w, exact.solution, 3));
  // Ground truth on this tiny ternary chain.
  EXPECT_GE(GroundTruthWorkflowGamma(w, exact.solution.hidden, {}), 3);
}

}  // namespace
}  // namespace provview
