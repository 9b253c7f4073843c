// Randomized equivalence suite for the streaming row paths: on instances
// small enough to also materialize, the streaming engines (supplier-fed
// MaxStandaloneGamma, streaming SafetyMemo, streamed workflow-table builds)
// must return verdicts and aggregates identical to the materialized paths,
// and the function-fed Algorithm 2 must match the naive possible-worlds
// enumeration.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

struct RandomModule {
  CatalogPtr catalog;
  ModulePtr module;
  Bitset64 visible;
};

RandomModule MakeRandomModule(int ki, int ko, int max_dom, uint64_t seed) {
  RandomModule inst;
  inst.catalog = std::make_shared<AttributeCatalog>();
  Rng rng(seed);
  std::vector<AttrId> in, out;
  for (int i = 0; i < ki; ++i) {
    in.push_back(inst.catalog->Add("i" + std::to_string(i),
                                   static_cast<int>(rng.NextInt(2, max_dom))));
  }
  for (int o = 0; o < ko; ++o) {
    out.push_back(inst.catalog->Add("o" + std::to_string(o),
                                    static_cast<int>(rng.NextInt(2, max_dom))));
  }
  inst.module = MakeRandomFunction("m", inst.catalog, in, out, &rng);
  inst.visible = Bitset64(inst.catalog->size());
  for (int a = 0; a < inst.catalog->size(); ++a) {
    if (rng.NextBernoulli(0.5)) inst.visible.Set(a);
  }
  return inst;
}

TEST(StreamingEquivalenceTest, MaxGammaMatchesMaterializedOnRandomModules) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomModule inst = MakeRandomModule(3, 2, 3, seed);
    const Module& m = *inst.module;
    // Independent reference: the sort-based Algorithm 2 over the
    // materialized relation.
    const int64_t expected = MaxStandaloneGamma(
        m.FullRelation(), m.inputs(), m.outputs(), inst.visible);
    // Streaming scan over the materialized rows...
    Relation rel = m.FullRelation();
    MaterializedRowSupplier mat_rows(rel);
    EXPECT_EQ(MaxStandaloneGamma(&mat_rows, m.inputs(), m.outputs(),
                                 inst.visible),
              expected)
        << "seed " << seed;
    // ...and over rows re-derived from the module's function.
    ModuleRowSupplier fn_rows(m);
    EXPECT_EQ(
        MaxStandaloneGamma(&fn_rows, m.inputs(), m.outputs(), inst.visible),
        expected)
        << "seed " << seed;
    // The thresholded module overload, forced down each path.
    EXPECT_EQ(MaxStandaloneGamma(m, inst.visible,
                                 /*materialize_threshold=*/m.DomainSize()),
              expected)
        << "seed " << seed;
    EXPECT_EQ(MaxStandaloneGamma(m, inst.visible,
                                 /*materialize_threshold=*/0),
              expected)
        << "seed " << seed;
  }
}

TEST(StreamingEquivalenceTest, SubsetSearchMatchesAcrossPaths) {
  for (uint64_t seed = 50; seed < 62; ++seed) {
    RandomModule inst = MakeRandomModule(2, 2, 3, seed);
    const Module& m = *inst.module;
    SubsetSearchOptions materialized, streamed;
    materialized.materialize_threshold = m.DomainSize();
    streamed.materialize_threshold = 0;
    for (int64_t gamma : {2, 4}) {
      SafeSearchStats mat_stats, stream_stats;
      std::vector<Bitset64> mat =
          MinimalSafeHiddenSets(m, gamma, &mat_stats, materialized);
      std::vector<Bitset64> stream =
          MinimalSafeHiddenSets(m, gamma, &stream_stats, streamed);
      EXPECT_EQ(mat, stream) << "seed " << seed << " gamma " << gamma;
      EXPECT_EQ(MinimalSafeCardinalityPairs(m, gamma, materialized),
                MinimalSafeCardinalityPairs(m, gamma, streamed))
          << "seed " << seed << " gamma " << gamma;
    }
  }
}

TEST(StreamingEquivalenceTest, SupplierAlgorithm2MatchesNaiveEnumeration) {
  for (uint64_t seed = 100; seed < 120; ++seed) {
    RandomModule inst = MakeRandomModule(2, 2, 2, seed);
    const Module& m = *inst.module;
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        m.FullRelation(), m.inputs(), m.outputs(), inst.visible);
    ModuleRowSupplier fn_rows(m);
    EXPECT_EQ(MaxStandaloneGamma(&fn_rows, m.inputs(), m.outputs(),
                                 inst.visible),
              naive.MinOutSize())
        << "seed " << seed;
  }
}

TEST(StreamingEquivalenceTest, StreamedTablesMatchMaterializedAggregates) {
  for (uint64_t seed = 200; seed < 206; ++seed) {
    Rng rng(seed);
    RandomWorkflowOptions options;
    options.num_modules = 3;
    GeneratedWorkflow rw = MakeRandomWorkflow(options, &rng);
    std::shared_ptr<const WorkflowTables> mat =
        BuildWorkflowTables(*rw.workflow);
    ASSERT_TRUE(mat->log_materialized);

    WorkflowTablesOptions stream_opts;
    stream_opts.materialize_threshold = 0;  // force the aggregate-only scan
    stream_opts.chunk_executions = 3;       // exercise chunk boundaries
    std::shared_ptr<const WorkflowTables> streamed =
        BuildWorkflowTables(*rw.workflow, stream_opts);
    EXPECT_FALSE(streamed->log_materialized);
    EXPECT_EQ(streamed->num_execs, mat->num_execs);
    EXPECT_EQ(streamed->orig_input_codes, mat->orig_input_codes)
        << "seed " << seed;
    EXPECT_TRUE(streamed->orig_rows.empty());

    // The sharded scan merges to the same aggregates.
    WorkflowTablesOptions parallel_opts = stream_opts;
    parallel_opts.num_threads = 4;
    parallel_opts.chunk_executions = 1;
    std::shared_ptr<const WorkflowTables> parallel =
        BuildWorkflowTables(*rw.workflow, parallel_opts);
    EXPECT_EQ(parallel->orig_input_codes, mat->orig_input_codes)
        << "seed " << seed;

    // A materialized build through the chunked scan is byte-identical to
    // the default build.
    WorkflowTablesOptions chunked_mat;
    chunked_mat.chunk_executions = 2;
    chunked_mat.num_threads = 2;
    std::shared_ptr<const WorkflowTables> remat =
        BuildWorkflowTables(*rw.workflow, chunked_mat);
    EXPECT_TRUE(remat->log_materialized);
    EXPECT_EQ(remat->orig_rows, mat->orig_rows) << "seed " << seed;
    EXPECT_EQ(remat->orig_in_code, mat->orig_in_code) << "seed " << seed;
    EXPECT_EQ(remat->init_values, mat->init_values) << "seed " << seed;
  }
}

TEST(StreamingEquivalenceTest, WorldEnumerationRefusesStreamedTables) {
  Fig1Workflow fig = MakeFig1Workflow();
  WorkflowTablesOptions opts;
  opts.materialize_threshold = 0;
  std::shared_ptr<const WorkflowTables> streamed =
      BuildWorkflowTables(*fig.workflow, opts);
  WorkflowEnumerationOptions wopts;
  EXPECT_DEATH(EnumerateWorkflowWorlds(*streamed,
                                       Bitset64::All(fig.catalog->size()), {},
                                       wopts),
               "materialized execution log");
}

}  // namespace
}  // namespace provview
