// E8: batch certification scaling on the task-graph executor.
//
// A 16-request CertifyWorkflowBatch with ground truth over a random
// 4-module workflow — per-module memo chains, the tables build and the
// per-request enumerations overlap as one dependency graph — run at the
// host's thread count against the same graph run inline at
// num_threads = 1.
//
// Results are PV_CHECKed field-identical between the two runs before any
// number is printed. Timing is interleaved min-of-N so drift hits both
// variants equally; on a single-core host both resolve to the same inline
// run and the ratio reads ~1.0. run_benches.sh records the summary key as
// `taskgraph_batch_scaling_x`:
//
//   E8 taskgraph batch: requests=16 modules=4 threads=4 host_ms=90.1
//       inline_ms=120.7 taskgraph_batch_scaling=1.34
//
// PODS_BENCH_SHORT=1 shrinks the repetition and round counts for CI smoke
// runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <thread>
#include <vector>

#include "common/engine_config.h"
#include "common/rng.h"
#include "common/status.h"
#include "generators/random_workflow.h"
#include "privacy/workflow_privacy.h"

namespace provview {
namespace {

bool ShortMode() { return std::getenv("PODS_BENCH_SHORT") != nullptr; }

// On a single-core host both variants run the same inline code, so any
// wall-clock difference is preemption by neighboring processes — the
// process-CPU clock measures the actual work. Multi-core hosts keep wall
// time: there the race measures parallel overlap, which CPU time would
// hide.
double RaceClockMs() {
  timespec ts;
  if (std::thread::hardware_concurrency() > 1) {
    clock_gettime(CLOCK_MONOTONIC, &ts);
  } else {
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  }
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const double t0 = RaceClockMs();
  fn();
  return RaceClockMs() - t0;
}

void BatchScaling() {
  // Small enough for the ground-truth possible-worlds enumeration (the
  // candidate space is exponential in free-module slots), big enough that
  // the per-module memo chains and the 16 enumerations carry real work.
  RandomWorkflowOptions wopts;
  wopts.num_modules = 4;
  wopts.max_inputs = 2;
  wopts.max_outputs = 1;
  Rng rng(17);
  GeneratedWorkflow gen = MakeRandomWorkflow(wopts, &rng);
  const Workflow& workflow = *gen.workflow;
  const int num_attrs = workflow.catalog()->size();

  const int kRequests = 16;
  std::vector<WorkflowCertificationRequest> requests;
  Rng req_rng(23);
  for (int r = 0; r < kRequests; ++r) {
    WorkflowCertificationRequest req;
    req.gamma = 2;
    req.hidden = Bitset64(num_attrs);
    for (int a = 0; a < num_attrs; ++a) {
      if (req_rng.NextBelow(4) == 0) req.hidden.Set(a);
    }
    requests.push_back(std::move(req));
  }

  WorkflowBatchOptions host, one;
  host.num_threads = 0;  // host thread count
  host.with_ground_truth = true;
  one = host;
  one.num_threads = 1;

  WorkflowBatchResult rhost, rone;
  // One batch is sub-millisecond on this workload; time `reps` back-to-back
  // batches per round so the measured window dwarfs timer jitter. Warmup
  // first so neither variant pays the first-touch costs.
  const int reps = ShortMode() ? 50 : 1000;
  rhost = CertifyWorkflowBatch(workflow, requests, host);
  double host_ms = std::numeric_limits<double>::infinity();
  double inline_ms = std::numeric_limits<double>::infinity();
  const int rounds = ShortMode() ? 2 : 6;
  for (int round = 0; round < rounds; ++round) {
    host_ms = std::min(host_ms, TimeMs([&] {
                         for (int i = 0; i < reps; ++i) {
                           rhost = CertifyWorkflowBatch(workflow, requests,
                                                        host);
                         }
                       }));
    inline_ms = std::min(inline_ms, TimeMs([&] {
                           for (int i = 0; i < reps; ++i) {
                             rone = CertifyWorkflowBatch(workflow, requests,
                                                         one);
                           }
                         }));
  }
  PV_CHECK_MSG(rhost.status.ok() && rone.status.ok(),
               "batch certification failed mid-bench");
  PV_CHECK_MSG(rhost.entries.size() == rone.entries.size(),
               "batch entry counts diverged");
  for (size_t r = 0; r < rhost.entries.size(); ++r) {
    const WorkflowBatchEntry& x = rhost.entries[r];
    const WorkflowBatchEntry& y = rone.entries[r];
    PV_CHECK_MSG(
        x.certificate.certified == y.certificate.certified &&
            x.certificate.module_gammas == y.certificate.module_gammas &&
            x.certificate.required_privatizations ==
                y.certificate.required_privatizations &&
            x.ground_truth_private == y.ground_truth_private,
        "parallel batch verdicts diverged from the inline run");
  }
  PV_CHECK_MSG(rhost.stats.checker_calls == rone.stats.checker_calls &&
                   rhost.stats.cache_hits == rone.stats.cache_hits,
               "parallel batch memo stats diverged from the inline run");
  std::printf(
      "E8 taskgraph batch: requests=%d modules=%d threads=%d host_ms=%.1f "
      "inline_ms=%.1f taskgraph_batch_scaling=%.2f\n",
      kRequests, workflow.num_modules(), ResolveThreads(0), host_ms,
      inline_ms, inline_ms / std::max(host_ms, 1e-6));
}

}  // namespace
}  // namespace provview

int main() {
  provview::BatchScaling();
  return 0;
}
