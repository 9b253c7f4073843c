// solve and audit: the engines called in-process, no daemon.
//
// solve runs SolveExactForWorkflow on a seeded stream of E10-shape layered
// workflows; audit runs CertifyWorkflowBatch with ground truth on seeded
// batches over small workflows. Traced runs replay the first instances of
// the same stream through the engines' public stages, one span per stage.
#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/bitset64.h"
#include "common/rng.h"
#include "generators/random_workflow.h"
#include "lp/branch_and_bound.h"
#include "lp/simplex.h"
#include "privacy/feasible_sets.h"
#include "privacy/possible_worlds.h"
#include "privacy/safe_subset_search.h"
#include "privacy/safety_memo.h"
#include "privacy/verdict_cache.h"
#include "privacy/workflow_privacy.h"
#include "secureview/bnb_oracle.h"
#include "secureview/feasibility.h"
#include "secureview/from_workflow.h"
#include "secureview/ilp_encoding.h"
#include "secureview/solvers.h"
#include "secureview/workflow_exact.h"
#include "server/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace provview;

// -------------------------------------------------------------------- solve --

/// Workflow size of the solve stream. The E10 family's 100 modules take
/// seconds per exact solve on one thread (one instance can take half a
/// minute), so a run would see a handful of heavy-tailed instances. 20
/// modules in 2 layers keep the shape (gamma_bound 3, reuse 0.8,
/// fractional LP roots, real branch-and-bound trees) at ~8 ms per solve, so
/// a run averages over thousands of instances.
constexpr int kSolveModules = 20;
constexpr int kSolveLayers = 2;
constexpr int64_t kSolveGamma = 2;
/// Every this-many-th solved instance is re-solved on one thread as the
/// cost reference.
constexpr int kSolveReferenceStride = 8;

GeneratedWorkflow SolveInstance(uint64_t seed, int64_t index) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) * 0x5851F42D4C957F2Dull +
          0xe10);
  RandomWorkflowOptions o;
  o.num_modules = kSolveModules;
  o.num_layers = kSolveLayers;
  o.min_inputs = 2;
  o.max_inputs = 3;
  o.max_outputs = 2;
  o.gamma_bound = 3;
  o.reuse_probability = 0.8;
  return MakeRandomWorkflow(o, &rng);
}

struct Solved {
  double cost = 0;
  SecureViewInstance instance;  // kept for the sampled reference solves
};

/// Checks one SolveExactForWorkflow outcome; returns false on failure.
bool CheckSolve(const WorkflowExactResult& r, int64_t index, Report* report) {
  if (!r.result.status.ok()) {
    report->Fail("solve " + std::to_string(index) + ": " + r.result.status.ToString());
    return false;
  }
  if (!IsFeasible(r.instance, r.result.solution) || !r.semantics_verified ||
      r.result.gap != 0.0) {
    report->Fail("solve " + std::to_string(index) +
                 ": infeasible, unverified or nonzero gap");
    return false;
  }
  return true;
}

/// The SolveExactForWorkflow pipeline replayed stage by stage with spans:
/// subset-lattice derivation, instance build, warm start, root LP and
/// branch-and-bound with the secure-view oracle. Returns the optimum.
double ReplaySolve(const Workflow& wf, SpanBuffer* buf, uint64_t rid, int64_t* checker_calls,
                   BnbResult* bnb_out) {
  ScopedSpan root(buf, "replay.solve", rid);
  auto cache = std::make_shared<VerdictCache>();
  std::vector<std::shared_ptr<SafetyMemo>> memos(static_cast<size_t>(wf.num_modules()));
  for (int i : wf.PrivateModuleIndices()) {
    const uint32_t ns = cache->RegisterNamespace(wf.module(i).name() + "/exact");
    memos[static_cast<size_t>(i)] = std::make_shared<SafetyMemo>(
        wf.module(i), Module::kDefaultMaterializeRows, cache, ns);
  }
  {
    ScopedSpan s(buf, "safe_subset_search", rid);
    SafeSearchStats stats;
    for (int i : wf.PrivateModuleIndices()) {
      const Module& m = wf.module(i);
      MinimalSafeHiddenSets(memos[static_cast<size_t>(i)].get(), m.inputs(), m.outputs(),
                            wf.catalog()->size(), kSolveGamma, &stats);
    }
    *checker_calls += stats.checker_calls;
  }
  SecureViewInstance inst;
  {
    ScopedSpan s(buf, "from_workflow.instance", rid);
    std::vector<int64_t> gammas(static_cast<size_t>(wf.num_modules()), kSolveGamma);
    inst = InstanceFromWorkflow(wf, gammas, ConstraintKind::kSet, memos);
  }
  SvEncoding enc;
  {
    ScopedSpan s(buf, "ilp_encoding.encode", rid);
    enc = EncodeSecureView(inst);
    for (int a : UselessAttrs(inst)) {
      enc.lp.SetVarBounds(enc.x_var[static_cast<size_t>(a)], 0.0, 0.0);
    }
  }
  const ExactOptions defaults;
  BnbOptions bnb = defaults.bnb;
  bnb.oracle = MakeSecureViewBnbOracle(&inst, &enc);
  {
    ScopedSpan s(buf, "solvers.warm_start", rid);
    SvResult greedy = SolveGreedyPerModule(inst);
    if (greedy.status.ok()) bnb.warm_objective = std::min(bnb.warm_objective, greedy.cost);
    RoundingOptions ropt;
    ropt.trials = defaults.warm_rounding_trials;
    ropt.simplex = bnb.simplex;
    SvResult rounded = SolveByLpRounding(inst, ropt);
    if (rounded.status.ok()) bnb.warm_objective = std::min(bnb.warm_objective, rounded.cost);
  }
  {
    ScopedSpan s(buf, "lp.simplex_root", rid);
    LpSolution lp = SolveLp(enc.lp, bnb.simplex);
    (void)lp;
  }
  ScopedSpan s(buf, "branch_and_bound", rid);
  *bnb_out = SolveIlp(enc.lp, enc.integer_vars, bnb);
  return bnb_out->objective;
}

}  // namespace

void RunSolve(const Args& args, Report* report) {
  Line("solve: modules=%d layers=%d gamma=%lld gamma_bound=3 reuse=0.8 threads=default "
       "loop=closed clients=1",
       kSolveModules, kSolveLayers, static_cast<long long>(kSolveGamma));
  // Set-up: the engines' first-touch costs, paid on a fixed pair of
  // warm-up instances (the same for every seed, so set-up time does not
  // depend on how hard the seed's first instances happen to be).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int64_t k = -2; k < 0; ++k) {
      GeneratedWorkflow g = SolveInstance(0, k);
      WorkflowExactResult r = SolveExactForWorkflow(*g.workflow, WorkflowExactOptions());
      report->Attempt();
      CheckSolve(r, k, report);
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }

  const double window_s = args.trace ? args.seconds * 0.5 : args.seconds;
  std::vector<Solved> solved;
  Window window(window_s);
  const Clock::time_point start = window.start();
  Timeline latency_ms(window);
  for (int64_t i = 0; MsBetween(start, Clock::now()) < window_s * 1e3; ++i) {
    GeneratedWorkflow g = SolveInstance(args.seed, i);
    const Clock::time_point t0 = Clock::now();
    WorkflowExactResult r = SolveExactForWorkflow(*g.workflow, WorkflowExactOptions());
    const double ms = MsBetween(t0, Clock::now());
    report->Attempt();
    Solved s;
    s.cost = std::numeric_limits<double>::quiet_NaN();  // keeps indices aligned
    if (CheckSolve(r, i, report)) {
      latency_ms.Add(Clock::now(), ms);
      s.cost = r.result.cost;
    }
    if (i % kSolveReferenceStride == 0) s.instance = std::move(r.instance);
    solved.push_back(std::move(s));
  }
  window.Finish();
  const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  const double solves_per_s = static_cast<double>(latency_ms.count()) / elapsed_s;

  // Cost reference: the sampled instances re-solved on one thread.
  int references = 0;
  for (size_t i = 0; i < solved.size(); i += kSolveReferenceStride) {
    if (std::isnan(solved[i].cost)) continue;
    ExactOptions one;
    one.bnb.num_threads = 1;
    SvResult ref = SolveExact(solved[i].instance, one);
    ++references;
    if (!ref.status.ok() || std::abs(ref.cost - solved[i].cost) > 1e-6) {
      report->Fail("solve " + std::to_string(i) + ": cost differs from the 1-thread solve");
    }
  }
  Samples all = latency_ms.Kept();
  Line("solve: solves=%lld solves_per_min=%.2f solve_p50_ms=%.3f solve_p90_ms=%.3f "
       "references=%d",
       static_cast<long long>(latency_ms.count()), solves_per_s * 60, all.Percentile(50), all.Percentile(90), references);
  if (!args.trace) {
    SetEndToEnd(report, window, nullptr, latency_ms, MedianOf(setup_s));
    return;
  }

  // Traced replay of the same stream's first instances.
  SpanBuffer buf;
  int64_t replayed = 0, checker_calls = 0, nodes = 0, lp_solves = 0, fathoms = 0;
  double traced_ms = 0;
  const Clock::time_point r0 = Clock::now();
  for (int64_t i = 0; i < static_cast<int64_t>(solved.size()) &&
                      MsBetween(r0, Clock::now()) < args.seconds * 0.5 * 1e3;
       ++i) {
    GeneratedWorkflow g = SolveInstance(args.seed, i);
    BnbResult bnb;
    const Clock::time_point t0 = Clock::now();
    const double optimum = ReplaySolve(*g.workflow, &buf, static_cast<uint64_t>(i),
                                       &checker_calls, &bnb);
    traced_ms += MsBetween(t0, Clock::now());
    report->Attempt();
    if (!bnb.status.ok() || std::abs(optimum - solved[static_cast<size_t>(i)].cost) > 1e-6) {
      report->Fail("drift: replayed SolveIlp optimum differs from SolveExactForWorkflow");
    }
    ++replayed;
    nodes += bnb.nodes_explored;
    lp_solves += bnb.lp_solves;
    fathoms += bnb.oracle_fathoms;
  }
  SetTraceOverhead(report, solves_per_s, replayed / (traced_ms / 1e3));
  const std::map<std::string, SpanTotals> spans = AggregateSpans({&buf});
  auto self_ms = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanSelfUs() / 1e3;
  };
  const double n = static_cast<double>(std::max<int64_t>(replayed, 1));
  report->Set("safe_subset_search.ms", self_ms("safe_subset_search"), "ms");
  report->Set("safe_subset_search.checker_calls", checker_calls / n, "count");
  report->Set("solvers.warm_start_ms", self_ms("solvers.warm_start"), "ms");
  report->Set("lp.simplex_root_ms", self_ms("lp.simplex_root"), "ms");
  report->Set("branch_and_bound.ms", self_ms("branch_and_bound"), "ms");
  report->Set("branch_and_bound.nodes", nodes / n, "count");
  report->Set("branch_and_bound.lp_solves", lp_solves / n, "count");
  report->Set("branch_and_bound.oracle_fathom_frac",
              nodes > 0 ? static_cast<double>(fathoms) / static_cast<double>(nodes) : 0.0,
              "ratio");
  report->Set("trace.spans", static_cast<double>(buf.spans().size()), "count");
  const std::string path = args.out_dir + "/trace-solve-" + std::to_string(args.seed) + ".json";
  WriteSpans(path, {&buf}, 200000);
  Line("solve: replayed=%lld nodes_per_solve=%.2f lp_solves_per_solve=%.2f file=%s",
       static_cast<long long>(replayed), nodes / n, lp_solves / n, path.c_str());
}

// -------------------------------------------------------------------- audit --

namespace {

constexpr int kAuditItemsPerBatch = 4;
constexpr int kAuditRandomWorkflows = 256;
/// Every this-many-th batch has its first item re-checked against the naive
/// enumerator, when the naive joint space is at most kNaiveCap.
constexpr int kNaiveStride = 1024;
constexpr int64_t kNaiveCap = 1 << 14;
/// The random part of the audit mix keeps workflows whose unpruned joint
/// function space (every module free) lies in this band. Above it ground
/// truth is orders of magnitude dearer per item, so a few such workflows
/// would decide a run's figures; below it an item is too small to exercise
/// the enumerator.
constexpr double kAuditSpaceMin = double{1 << 8};
constexpr double kAuditSpaceMax = double{1 << 14};
/// Built-ins whose joint space is at most this join the mix. With fig1
/// (2^20) in every round, the median round took 50 ms instead of 8 and
/// swung with fig1's hidden sets alone; one-one-chain and diamond exceed
/// the enumerator's candidate budget.
constexpr double kBuiltinSpaceMax = double{1 << 16};
/// Batches per audit round: first one batch on each built-in of the mix,
/// then random workflows. A round is the timed unit, so every timed
/// operation has the same composition and its latency percentiles do not
/// hinge on which few heavy batches land near the tail.
constexpr int kBatchesPerRound = 8;

/// ∏ |Range_i|^|Dom_i| over all modules: the naive joint space.
double JointSpace(const Workflow& wf) {
  std::shared_ptr<const WorkflowTables> t = BuildWorkflowTables(wf);
  double space = 1;
  for (int i = 0; i < t->num_modules; ++i) {
    space *= std::pow(static_cast<double>(t->range_size[static_cast<size_t>(i)]),
                      static_cast<double>(t->dom_size[static_cast<size_t>(i)]));
  }
  return space;
}

struct AuditFixture {
  WorkflowRegistry builtins;
  std::vector<std::string> builtin_names;  // built-ins in the mix
  std::vector<const Workflow*> builtin_mix;
  std::deque<GeneratedWorkflow> randoms;
  std::vector<const Workflow*> random_mix;
};

void BuildAuditFixture(uint64_t seed, AuditFixture* fx) {
  fx->builtins.RegisterBuiltins();
  for (const std::string& name : fx->builtins.Names()) {
    const Workflow* wf = fx->builtins.Find(name)->workflow.get();
    if (JointSpace(*wf) <= kBuiltinSpaceMax) {
      fx->builtin_mix.push_back(wf);
      fx->builtin_names.push_back(name);
    }
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x617564);
  while (static_cast<int>(fx->randoms.size()) < kAuditRandomWorkflows) {
    RandomWorkflowOptions o;
    o.num_modules = 3;
    o.min_inputs = 1;
    o.max_inputs = 2;
    o.max_outputs = 2;
    o.public_fraction = 0.34;
    GeneratedWorkflow g = MakeRandomWorkflow(o, &rng);
    const double space = JointSpace(*g.workflow);
    if (space < kAuditSpaceMin || space > kAuditSpaceMax) continue;
    fx->randoms.push_back(std::move(g));
    fx->random_mix.push_back(fx->randoms.back().workflow.get());
  }
}

struct AuditBatch {
  const Workflow* wf = nullptr;
  std::vector<WorkflowCertificationRequest> requests;
};

AuditBatch MakeAuditBatch(const AuditFixture& fx, uint64_t seed, int64_t index) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ull +
          0x61);
  AuditBatch b;
  const uint64_t pick = rng.NextBelow(fx.random_mix.size());
  const size_t slot = static_cast<size_t>(index % kBatchesPerRound);
  if (index >= 0 && slot < fx.builtin_mix.size()) {
    b.wf = fx.builtin_mix[slot];
  } else {
    b.wf = fx.random_mix[pick];
  }
  const std::vector<int> used = b.wf->used_attrs().ToVector();
  for (int k = 0; k < kAuditItemsPerBatch; ++k) {
    WorkflowCertificationRequest r;
    r.gamma = 2 + static_cast<int64_t>(rng.NextBelow(2));
    r.hidden = Bitset64(b.wf->catalog()->size());
    for (int a : used) {
      if (rng.NextBernoulli(0.5)) r.hidden.Set(a);
    }
    b.requests.push_back(std::move(r));
  }
  return b;
}

WorkflowBatchResult AuditOnce(const AuditBatch& b) {
  WorkflowBatchOptions opts;  // default thread count
  opts.with_ground_truth = true;
  return CertifyWorkflowBatch(*b.wf, b.requests, opts);
}

/// Theorem-4 soundness of every entry: certified implies ground-truth private.
bool CheckAudit(const WorkflowBatchResult& r, size_t items, int64_t index, Report* report) {
  if (!r.status.ok() || r.entries.size() != items) {
    report->Fail("audit " + std::to_string(index) + ": " + r.status.ToString());
    return false;
  }
  for (const WorkflowBatchEntry& e : r.entries) {
    if (e.certificate.certified && !e.ground_truth_private) {
      report->Fail("audit " + std::to_string(index) +
                   ": certified but not private by ground truth (Theorem 4)");
      return false;
    }
  }
  return true;
}

/// Ground truth of one item by the naive joint odometer; -1 when the naive
/// space exceeds the cap.
int NaiveGroundTruth(const Workflow& wf, const WorkflowCertificationRequest& r) {
  if (JointSpace(wf) > static_cast<double>(kNaiveCap)) return -1;
  const WorkflowWorlds naive =
      EnumerateWorkflowWorldsNaive(wf, r.hidden.Complement(), {}, kNaiveCap);
  bool is_private = true;
  for (int i : wf.PrivateModuleIndices()) {
    is_private = is_private && naive.MinOutSize(i) >= r.gamma;
  }
  return is_private ? 1 : 0;
}

}  // namespace

void RunAudit(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<AuditFixture> owned;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    owned = std::make_unique<AuditFixture>();
    BuildAuditFixture(args.seed, owned.get());
    const AuditFixture& fx = *owned;
    const AuditBatch b = MakeAuditBatch(fx, args.seed, -1);
    report->Attempt(static_cast<int64_t>(b.requests.size()));
    CheckAudit(AuditOnce(b), b.requests.size(), -1, report);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  const AuditFixture& fx = *owned;
  std::string builtins;
  for (const std::string& name : fx.builtin_names) builtins += " " + name;
  Line("audit: items_per_batch=%d batches_per_round=%d random_workflows=%d built-ins:%s "
       "threads=default loop=closed clients=1 naive_cap=%lld",
       kAuditItemsPerBatch, kBatchesPerRound, kAuditRandomWorkflows, builtins.c_str(),
       static_cast<long long>(kNaiveCap));

  const double window_s = args.trace ? args.seconds * 0.5 : args.seconds;
  int64_t items = 0;
  std::vector<std::vector<bool>> truths;
  int naive_checked = 0;
  std::vector<std::pair<int64_t, bool>> naive_sample;
  Window window(window_s);
  const Clock::time_point start = window.start();
  Timeline latency_ms(window), done(window);
  double round_ms = 0;
  bool round_ok = true;
  for (int64_t i = 0; MsBetween(start, Clock::now()) < window_s * 1e3 ||
                      i % kBatchesPerRound != 0;
       ++i) {
    const AuditBatch b = MakeAuditBatch(fx, args.seed, i);
    const Clock::time_point t0 = Clock::now();
    const WorkflowBatchResult r = AuditOnce(b);
    round_ms += MsBetween(t0, Clock::now());
    report->Attempt(static_cast<int64_t>(b.requests.size()));
    std::vector<bool> truth;
    if (CheckAudit(r, b.requests.size(), i, report)) {
      done.Add(Clock::now(), static_cast<double>(b.requests.size()));
      items += static_cast<int64_t>(b.requests.size());
      for (const WorkflowBatchEntry& e : r.entries) truth.push_back(e.ground_truth_private);
      // Built-ins take the first slots of a round; their joint spaces are
      // beyond the naive cap, so the sample starts past them.
      if (i % kNaiveStride == kBatchesPerRound - 1) naive_sample.emplace_back(i, truth[0]);
    } else {
      round_ok = false;
    }
    truths.push_back(std::move(truth));
    if (i % kBatchesPerRound == kBatchesPerRound - 1) {
      if (round_ok) latency_ms.Add(Clock::now(), round_ms);
      round_ms = 0;
      round_ok = true;
    }
  }
  window.Finish();
  const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  const double items_per_s = items / elapsed_s;
  // Naive cross-check of the sampled items, outside the timed window.
  for (const auto& [i, truth] : naive_sample) {
    const AuditBatch b = MakeAuditBatch(fx, args.seed, i);
    const int naive = NaiveGroundTruth(*b.wf, b.requests[0]);
    if (naive < 0) continue;
    ++naive_checked;
    if ((naive == 1) != truth) {
      report->Fail("audit " + std::to_string(i) + ": ground truth differs from the naive enumerator");
    }
  }
  Samples all = latency_ms.Kept();
  Line("audit: rounds=%lld audit_items_per_s=%.1f audit_p50_ms=%.4f audit_p90_ms=%.4f "
       "naive_checked=%d",
       static_cast<long long>(latency_ms.count()), items_per_s, all.Percentile(50),
       all.Percentile(90), naive_checked);
  if (!args.trace) {
    SetEndToEnd(report, window, &done, latency_ms, MedianOf(setup_s));
    return;
  }

  // Traced replay: certification, then the ground-truth stages per item.
  SpanBuffer buf;
  int64_t replayed_items = 0;
  double walked = 0, naive_space = 0, traced_ms = 0;
  const Clock::time_point r0 = Clock::now();
  for (size_t i = 0; i < truths.size() && MsBetween(r0, Clock::now()) < args.seconds * 0.5 * 1e3;
       ++i) {
    if (truths[i].empty()) continue;
    const AuditBatch b = MakeAuditBatch(fx, args.seed, static_cast<int64_t>(i));
    const uint64_t rid = i;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan root(&buf, "replay.audit", rid);
      {
        ScopedSpan s(&buf, "workflow_privacy.certify_batch", rid);
        CertifyWorkflowBatch(*b.wf, b.requests, WorkflowBatchOptions());
      }
      std::shared_ptr<const WorkflowTables> tables;
      {
        ScopedSpan s(&buf, "possible_worlds.tables", rid);
        tables = BuildWorkflowTables(*b.wf, WorkflowTablesOptions());
      }
      for (size_t k = 0; k < b.requests.size(); ++k) {
        const WorkflowCertificationRequest& r = b.requests[k];
        const Bitset64 visible = r.hidden.Complement();
        {
          ScopedSpan s(&buf, "feasible_sets", rid);
          FeasibleSetAnalysis fa = AnalyzeFeasibleSets(*tables, visible, {});
          (void)fa;
        }
        WorkflowWorlds worlds;
        {
          ScopedSpan s(&buf, "possible_worlds.enumerate", rid);
          WorkflowEnumerationOptions wopts;
          wopts.max_candidates = WorkflowBatchOptions().max_candidates;
          wopts.gamma = r.gamma;
          wopts.collect_distinct_relations = false;
          wopts.num_threads = 1;
          worlds = EnumerateWorkflowWorlds(*tables, visible, {}, wopts);
        }
        bool is_private = true;
        if (!worlds.early_stopped) {
          for (int m : b.wf->PrivateModuleIndices()) {
            is_private = is_private && worlds.MinOutSize(m) >= r.gamma;
          }
        }
        report->Attempt();
        if (!worlds.status.ok() || is_private != truths[i][k]) {
          report->Fail("drift: replayed ground truth differs from CertifyWorkflowBatch");
        }
        walked += static_cast<double>(worlds.pruned_candidates);
        naive_space += static_cast<double>(worlds.naive_candidates);
        ++replayed_items;
      }
    }
    traced_ms += MsBetween(t0, Clock::now());
  }
  SetTraceOverhead(report, items_per_s, replayed_items / (traced_ms / 1e3));
  const std::map<std::string, SpanTotals> spans = AggregateSpans({&buf});
  auto self = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanSelfUs();
  };
  const double n = static_cast<double>(std::max<int64_t>(replayed_items, 1));
  report->Set("workflow_privacy.certify_batch_us", self("workflow_privacy.certify_batch"), "us");
  report->Set("possible_worlds.tables_ms", self("possible_worlds.tables") / 1e3, "ms");
  report->Set("feasible_sets.ms", self("feasible_sets") / 1e3, "ms");
  report->Set("possible_worlds.enumerate_ms", self("possible_worlds.enumerate") / 1e3, "ms");
  report->Set("possible_worlds.walked_states", walked / n, "count");
  report->Set("possible_worlds.prune_ratio", naive_space > 0 ? walked / naive_space : 0.0,
              "ratio");
  report->Set("trace.spans", static_cast<double>(buf.spans().size()), "count");
  const std::string path = args.out_dir + "/trace-audit-" + std::to_string(args.seed) + ".json";
  WriteSpans(path, {&buf}, 200000);
  Line("audit: replayed_items=%lld walked_states_per_item=%.1f file=%s",
       static_cast<long long>(replayed_items), walked / n, path.c_str());
}

}  // namespace perfbench
