// perfbench: the repository benchmark binary.
//
//   perfbench --workload <certify-hot|certify-churn|solve|audit> --seed <n>
//             --seconds <s> --trace <0|1> [--rev <id>] [--out-dir <dir>]
//
// Prints a provenance record, human-readable result lines, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits nonzero when any answer was wrong. perfbench/run.py builds this
// binary and forwards its own arguments; see perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Names and units exactly as BENCHMARK.json lists them.
const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"protocol.decode_us", "us"},
    {"protocol.encode_us", "us"},
    {"protocol.bytes_per_req", "bytes"},
    {"handler.handle_frame_us", "us"},
    {"reactor.hop_us", "us"},
    {"registry.find_us", "us"},
    {"registry.register_us", "us"},
    {"serialization.decode_workflow_us", "us"},
    {"admission.admit_us", "us"},
    {"admission.rejected", "count"},
    {"admission.peak_depth", "count"},
    {"verdict_cache.hit_rate", "ratio"},
    {"verdict_cache.evictions", "count"},
    {"verdict_cache.bytes", "bytes"},
    {"verdict_cache.namespaces", "count"},
    {"verdict_cache.hot_hit_rate", "ratio"},
    {"verdict_cache.unregister_namespace_delta", "count"},
    {"verdict_cache.unregister_bytes_delta", "bytes"},
    {"workflow_privacy.certify_batch_us", "us"},
    {"safety_memo.checker_calls_per_item", "count"},
    {"standalone_privacy.checker_us", "us"},
    {"safe_subset_search.ms", "ms"},
    {"safe_subset_search.checker_calls", "count"},
    {"solvers.warm_start_ms", "ms"},
    {"lp.simplex_root_ms", "ms"},
    {"branch_and_bound.ms", "ms"},
    {"branch_and_bound.nodes", "count"},
    {"branch_and_bound.lp_solves", "count"},
    {"branch_and_bound.oracle_fathom_frac", "ratio"},
    {"possible_worlds.tables_ms", "ms"},
    {"feasible_sets.ms", "ms"},
    {"possible_worlds.enumerate_ms", "ms"},
    {"possible_worlds.walked_states", "count"},
    {"possible_worlds.prune_ratio", "ratio"},
    {"loadgen.late_ms", "ms"},
    {"owner.batch_p50_ms", "ms"},
    {"owner.register_p50_ms", "ms"},
    {"trace.untraced_rate", "1/s"},
    {"trace.traced_rate", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"process.peak_rss_mb", "MiB"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<certify-hot|certify-churn|solve|audit> --seed <n> --seconds <s> "
               "--trace <0|1> [--rev <id>] [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

void SetEndToEnd(Report* report, const Window& window, const Timeline* done,
                 const Timeline& latency_ms, double setup_s) {
  const std::vector<bool> keep = window.Kept();
  const double rate = done != nullptr ? done->SliceRate(keep, /*count=*/false)
                                      : latency_ms.SliceRate(keep, /*count=*/true);
  const double p50 = latency_ms.SlicePercentile(keep, 50);
  const double p90 = latency_ms.SlicePercentile(keep, 90);
  report->Set("throughput_per_s", rate, "1/s");
  report->Set("p50_ms", p50, "ms");
  report->Set("p90_ms", p90, "ms");
  report->Set("setup_s", setup_s, "s");
  std::string steal;
  for (double s : window.Steal()) {
    if (!steal.empty()) steal += ',';
    steal += std::to_string(std::lround(s * 1000));
  }
  Line("host: steal_per_mille_per_slice=%s kept_slices=%d/%d", steal.empty() ? "n/a" : steal.c_str(),
       static_cast<int>(std::count(keep.begin(), keep.end(), true)), kSlices);
  Line("end-to-end: slices=%d throughput_per_s=%.4f p50_ms=%.4f p90_ms=%.4f samples=%lld "
       "setup_s=%.4f peak_rss_mb=%.2f",
       kSlices, rate, p50, p90, static_cast<long long>(latency_ms.count()), setup_s,
       PeakRssMb());
}

void SetTraceOverhead(Report* report, double untraced_rate,
                      double traced_rate) {
  report->Set("trace.untraced_rate", untraced_rate, "1/s");
  report->Set("trace.traced_rate", traced_rate, "1/s");
  const double overhead =
      untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
  report->Set("trace.overhead_frac", overhead, "ratio");
  Line("trace: untraced_rate=%.3f traced_rate=%.3f overhead_frac=%.4f",
       untraced_rate, traced_rate, overhead);
}

void Line(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

int ClientsOf(const std::string& workload) {
  // Half the host's threads: the daemon's reactor and executor threads
  // need the other half, and an oversubscribed host turns scheduling noise
  // into run-to-run spread.
  if (workload == "certify-hot") return std::max(1, HostThreads() / 2);
  if (workload == "certify-churn") return std::max(2, HostThreads());
  return 1;  // solve and audit: one in-process caller
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--rev") {
      args.rev = val;
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions\n");
  return 3;
#endif

  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "certify-hot") run = RunCertifyHot;
  if (args.workload == "certify-churn") run = RunCertifyChurn;
  if (args.workload == "solve") run = RunSolve;
  if (args.workload == "audit") run = RunAudit;
  if (run == nullptr) return Usage(("unknown workload '" + args.workload + "'").c_str());

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"host_threads\": %d, \"clients\": %d, "
      "\"open_loop_rate_per_s\": %g, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"rev\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, HostThreads(), ClientsOf(args.workload),
      args.workload == "certify-churn" ? kLightRate : 0.0, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, args.rev.c_str());

  Report report;
  run(args, &report);
  report.Set("process.peak_rss_mb", PeakRssMb(), "MiB");

  std::vector<std::string> names;
  for (const MetricSpec& m : args.trace ? kPerLayer : kEndToEnd) {
    // Layers a workload does not cross read 0 on its traced run.
    if (args.trace && !report.Has(m.name)) report.Set(m.name, 0.0, m.unit);
    names.push_back(m.name);
  }
  Line("result: attempted=%lld failed=%lld fail_frac=%.6f",
       static_cast<long long>(report.attempted()),
       static_cast<long long>(report.failed()),
       report.attempted() > 0
           ? static_cast<double>(report.failed()) / report.attempted()
           : 0.0);
  if (!report.PrintResult(names)) return 1;
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
