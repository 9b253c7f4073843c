// The four benchmark workloads. Each one sets up the system, measures it
// for args.seconds, checks every answer against a reference and fills the
// report: the end-to-end metrics on an untraced run, the per-layer metrics
// (plus the traced run's own end-to-end numbers) on a traced one.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is the median, so a
/// burst of host interference during one set-up does not move it.
inline constexpr int kSetupReps = 7;

/// Light open-loop rate on certify-churn, requests per second in total.
inline constexpr double kLightRate = 2000.0;

/// Client threads (and connections) a workload drives the system with.
int ClientsOf(const std::string& workload);

/// Sets the end-to-end metrics every workload reports from one measured
/// window, over the window's kept slices: the work rate (`done` holds units
/// of work completed; null = one unit per latency sample), the median and
/// p90 of `latency_ms`, and the set-up time.
void SetEndToEnd(Report* report, const Window& window, const Timeline* done,
                 const Timeline& latency_ms, double setup_s);

/// Sets the traced run's own end-to-end numbers and the tracing overhead
/// against the untraced phase of the same run.
void SetTraceOverhead(Report* report, double untraced_rate,
                      double traced_rate);

/// Prints one human-readable `name=value` line to stdout.
void Line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

void RunCertifyHot(const Args& args, Report* report);
void RunCertifyChurn(const Args& args, Report* report);
void RunSolve(const Args& args, Report* report);
void RunAudit(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
