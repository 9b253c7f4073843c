// Equivalence suite pinning the Algorithm-2 checker to its specification:
// on randomized small instances both Algorithm-2 overloads (materialized
// Relation and streaming RowSupplier) and the Module overload must return
// the naive possible-worlds enumerator's min |OUT|, every per-input OUT set
// (size and contents) and the same Γ verdict at every Γ — Lemma 2 and the
// flip construction, checked by brute force.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "module/module_library.h"
#include "privacy/possible_worlds.h"
#include "privacy/standalone_privacy.h"
#include "relation/row_supplier.h"

namespace provview {
namespace {

struct RandomInstance {
  CatalogPtr catalog;
  ModulePtr module;
  Relation relation;
  Bitset64 visible;
};

// A random module with `ki` inputs (domains in [2, in_dom]) and `ko`
// outputs (domains in [2, out_dom]), plus a random visible subset of its
// attributes. Domain caps keep |Range|^N within reach of the naive
// reference enumerator.
RandomInstance MakeInstance(int ki, int ko, int in_dom, int out_dom,
                            uint64_t seed) {
  RandomInstance inst;
  inst.catalog = std::make_shared<AttributeCatalog>();
  Rng rng(seed);
  std::vector<AttrId> in, out;
  for (int i = 0; i < ki; ++i) {
    in.push_back(inst.catalog->Add("i" + std::to_string(i),
                                   static_cast<int>(rng.NextInt(2, in_dom))));
  }
  for (int o = 0; o < ko; ++o) {
    out.push_back(inst.catalog->Add("o" + std::to_string(o),
                                    static_cast<int>(rng.NextInt(2, out_dom))));
  }
  inst.module = MakeRandomFunction("m", inst.catalog, in, out, &rng);
  inst.relation = inst.module->FullRelation();
  inst.visible = Bitset64(inst.catalog->size());
  for (int a = 0; a < inst.catalog->size(); ++a) {
    if (rng.NextBernoulli(0.5)) inst.visible.Set(a);
  }
  return inst;
}

// Algorithm 2 against the naive enumerator on one module relation: the
// overall Γ through every overload, then each input's OUT set.
void ExpectAlgorithm2MatchesNaive(const Module& module, const Relation& rel,
                                  const Bitset64& visible,
                                  const StandaloneWorlds& naive,
                                  uint64_t seed) {
  const std::vector<AttrId>& in = module.inputs();
  const std::vector<AttrId>& out = module.outputs();
  const int64_t expected = naive.MinOutSize();
  EXPECT_EQ(MaxStandaloneGamma(rel, in, out, visible), expected)
      << "seed " << seed;
  MaterializedRowSupplier rows(rel);
  EXPECT_EQ(MaxStandaloneGamma(&rows, in, out, visible), expected)
      << "seed " << seed;
  EXPECT_EQ(MaxStandaloneGamma(module, visible), expected) << "seed " << seed;
  // Streamed from the module's function instead of the materialized table.
  EXPECT_EQ(MaxStandaloneGamma(module, visible, /*materialize_threshold=*/0),
            expected)
      << "seed " << seed;
  for (int64_t gamma : {1, 2, 3, 5}) {
    EXPECT_EQ(IsStandaloneSafe(rel, in, out, visible, gamma),
              expected >= gamma)
        << "seed " << seed << " gamma " << gamma;
    EXPECT_EQ(IsStandaloneSafe(&rows, in, out, visible, gamma),
              expected >= gamma)
        << "seed " << seed << " gamma " << gamma;
  }
  // The real relation is itself a world, so every input has an OUT set.
  ASSERT_GE(naive.num_worlds, 1) << "seed " << seed;
  for (const auto& [x, outs] : naive.out_sets) {
    EXPECT_EQ(OutSetSize(rel, in, out, visible, x),
              static_cast<int64_t>(outs.size()))
        << "seed " << seed;
    EXPECT_EQ(OutSet(rel, in, out, visible, x),
              std::vector<Tuple>(outs.begin(), outs.end()))
        << "seed " << seed;
  }
}

TEST(PossibleWorldsEquivalenceTest, RandomizedInstancesMatchNaive) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    // Rotate through shapes: boolean 2-in/2-out, wide-domain outputs with a
    // single output attr, and wide-domain inputs with boolean outputs.
    RandomInstance inst = seed % 3 == 0   ? MakeInstance(2, 2, 2, 2, seed)
                          : seed % 3 == 1 ? MakeInstance(2, 1, 2, 4, seed)
                                          : MakeInstance(2, 2, 3, 2, seed);
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible);
    ExpectAlgorithm2MatchesNaive(*inst.module, inst.relation, inst.visible,
                                 naive, seed);
  }
}

TEST(PossibleWorldsEquivalenceTest, LargerInputSpaceMatchesNaive) {
  for (uint64_t seed = 100; seed < 106; ++seed) {
    RandomInstance inst = MakeInstance(3, 1, 2, 3, seed);
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible, int64_t{1} << 40);
    ExpectAlgorithm2MatchesNaive(*inst.module, inst.relation, inst.visible,
                                 naive, seed);
  }
}

TEST(PossibleWorldsEquivalenceTest, WideDomainInputsMatchNaive) {
  for (uint64_t seed = 200; seed < 210; ++seed) {
    RandomInstance inst = MakeInstance(2, 2, 3, 2, seed);
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        inst.relation, inst.module->inputs(), inst.module->outputs(),
        inst.visible);
    ExpectAlgorithm2MatchesNaive(*inst.module, inst.relation, inst.visible,
                                 naive, seed);
  }
}

// The two E1c configurations the naive walk covers in a fraction of a
// second (4^8 = 2^16 candidates each): random boolean modules with one
// input and one output hidden — partial visibility, the regime where the Γ
// bound is neither trivial nor total.
TEST(PossibleWorldsEquivalenceTest, E1cConfigurationsMatchNaive) {
  struct Config {
    int ki, ko;
    uint64_t seed;
  };
  for (const Config& c : {Config{3, 2, 42}, Config{4, 1, 7}}) {
    auto catalog = std::make_shared<AttributeCatalog>();
    std::vector<AttrId> in, out;
    for (int i = 0; i < c.ki; ++i) {
      in.push_back(catalog->Add("i" + std::to_string(i)));
    }
    for (int o = 0; o < c.ko; ++o) {
      out.push_back(catalog->Add("o" + std::to_string(o)));
    }
    Rng rng(c.seed);
    ModulePtr m = MakeRandomFunction("m", catalog, in, out, &rng);
    Relation rel = m->FullRelation();
    Bitset64 visible = Bitset64::All(catalog->size());
    visible.Reset(in[0]);
    visible.Reset(out[0]);
    StandaloneWorlds naive = EnumerateStandaloneWorldsNaive(
        rel, m->inputs(), m->outputs(), visible, int64_t{1} << 32);
    EXPECT_EQ(naive.naive_candidates, int64_t{1} << 16) << "seed " << c.seed;
    ExpectAlgorithm2MatchesNaive(*m, rel, visible, naive, c.seed);
  }
}

TEST(PossibleWorldsEquivalenceTest, EmptyRelationYieldsNoWorlds) {
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId a = catalog->Add("a");
  AttrId b = catalog->Add("b");
  Relation empty(Schema(catalog, {a, b}));
  StandaloneWorlds naive =
      EnumerateStandaloneWorldsNaive(empty, {a}, {b}, Bitset64::All(2));
  EXPECT_EQ(naive.num_worlds, 0);
  EXPECT_TRUE(naive.out_sets.empty());
  EXPECT_EQ(naive.MinOutSize(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(MaxStandaloneGamma(empty, {a}, {b}, Bitset64::All(2)),
            naive.MinOutSize());
  MaterializedRowSupplier rows(empty);
  EXPECT_EQ(MaxStandaloneGamma(&rows, {a}, {b}, Bitset64::All(2)),
            naive.MinOutSize());
}

}  // namespace
}  // namespace provview
