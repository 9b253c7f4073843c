// Shared execution knobs of the privacy engines. EngineConfig is the single
// definition of num_threads / executor / control; the per-engine option
// structs (WorkflowTablesOptions, SubsetSearchOptions,
// WorkflowEnumerationOptions, WorkflowBatchOptions) embed it as a base, so
// one configuration threads through a pipeline of engine calls. Knobs only
// some engines read (e.g. materialize_threshold) live on those engines'
// option structs instead.
#ifndef PROVVIEW_COMMON_ENGINE_CONFIG_H_
#define PROVVIEW_COMMON_ENGINE_CONFIG_H_

#include <algorithm>
#include <thread>

namespace provview {

class ExecControl;
class TaskGraphExecutor;

/// Resolves an options-style thread count: 0 means auto (hardware
/// concurrency, at least 1), anything else is clamped to >= 1. The single
/// policy shared by every `num_threads` knob in the library.
inline int ResolveThreads(int requested) {
  if (requested == 0) {
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  return std::max(1, requested);
}

/// Execution knobs common to every privacy engine. Engines read the subset
/// that applies to them and document any engine-specific interpretation in
/// their derived options struct.
struct EngineConfig {
  /// Runners (see ResolveThreads). 0 = hardware concurrency, 1 = fully
  /// sequential: the engine's task graph runs inline on the calling thread.
  int num_threads = 1;

  /// Optional shared executor (e.g. the daemon's). nullptr = a private
  /// executor per call sized so the calling thread plus its workers total
  /// num_threads runners.
  TaskGraphExecutor* executor = nullptr;

  /// Optional deadline/cancellation/memory-budget token (service mode).
  /// Engines poll it at chunk/level boundaries and surface a trip as a
  /// typed Status instead of a PV_CHECK abort.
  const ExecControl* control = nullptr;
};

}  // namespace provview

#endif  // PROVVIEW_COMMON_ENGINE_CONFIG_H_
