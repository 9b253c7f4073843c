// Randomized equivalence suite for the streaming row paths: on instances
// small enough to also materialize, the streaming engines (supplier-fed
// MaxStandaloneGamma, streaming SafetyMemo, chunked and sharded
// workflow-table builds) must return verdicts and tables identical to the
// materialized and default paths, and the function-fed Algorithm 2 must
// match the naive possible-worlds enumeration.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"

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
    std::shared_ptr<const WorkflowTables> base =
        BuildWorkflowTables(*rw.workflow);

    // Every chunking of the streamed scan, sequential or sharded, merges
    // to tables byte-identical to the default build.
    for (int64_t chunk = 1; chunk <= 3; ++chunk) {
      for (int threads = 1; threads <= 4; ++threads) {
        WorkflowTablesOptions opts;
        opts.chunk_executions = chunk;  // exercise chunk boundaries
        opts.num_threads = threads;
        std::shared_ptr<const WorkflowTables> built =
            BuildWorkflowTables(*rw.workflow, opts);
        SCOPED_TRACE(testing::Message() << "seed " << seed << " chunk "
                                        << chunk << " threads " << threads);
        EXPECT_EQ(built->num_execs, base->num_execs);
        EXPECT_EQ(built->orig_rows, base->orig_rows);
        EXPECT_EQ(built->orig_in_code, base->orig_in_code);
        EXPECT_EQ(built->init_values, base->init_values);
        EXPECT_EQ(built->orig_input_codes, base->orig_input_codes);
      }
    }
  }
}

}  // namespace
}  // namespace provview
