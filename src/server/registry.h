// Named workflows a podsd instance serves. Module functions are arbitrary
// C++ and cannot travel over the wire intensionally, so the daemon certifies
// against registered workflows: the fixed-seed built-ins compiled in at
// startup, plus workflows REGISTERed over the wire as extensional tables
// (the SerializeWorkflowBinary codec). The registry owns ONE VerdictCache
// shared by every registered workflow — each entry binds a
// WorkflowCacheNamespace into it, so repeated certifications of the same
// workflow (across requests AND connections) answer from settled verdicts
// instead of re-running Algorithm 2, and a byte budget on the cache bounds
// the daemon's total verdict memory (eviction only forgets verdicts).
//
// Thread-safety: the map is guarded by a shared_mutex (REGISTER/UNREGISTER
// take it exclusive, every lookup shared) and entries are handed out as
// shared_ptr — a request certifying against a workflow keeps its entry
// alive even if a concurrent UNREGISTER drops it from the map mid-flight.
// The cache itself is striped-locked and safe for concurrent
// certifications. An entry's cache namespaces are dropped when the entry is
// destroyed — after UNREGISTER (or a replacing Register) removed it from
// the map AND the last in-flight request released it — so unregistering
// returns the workflow's verdict memory.
#ifndef PROVVIEW_SERVER_REGISTRY_H_
#define PROVVIEW_SERVER_REGISTRY_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "privacy/verdict_cache.h"
#include "privacy/workflow_privacy.h"
#include "workflow/workflow.h"

namespace provview {

/// One served workflow: ownership bundle + its namespaces in the shared
/// verdict cache, which its destructor drops.
struct RegisteredWorkflow {
  ~RegisteredWorkflow();

  std::string name;
  CatalogPtr catalog;      ///< keeps the workflow's catalog alive
  WorkflowPtr workflow;
  std::unique_ptr<WorkflowCacheNamespace> verdicts;
};

class WorkflowRegistry {
 public:
  /// Unbounded shared cache (the historical daemon behavior).
  WorkflowRegistry();
  /// Shared cache under `config` — set config.byte_budget to cap the
  /// daemon's total verdict memory across all workflows.
  explicit WorkflowRegistry(const VerdictCacheConfig& config);

  /// Takes ownership; replaces any previous entry of the same name. The
  /// startup registration path (built-ins, test fixtures).
  void Register(std::string name, CatalogPtr catalog, WorkflowPtr workflow);

  /// The wire REGISTER path: like Register but a duplicate name is a typed
  /// rejection (replacing a workflow other connections may be certifying
  /// against must be an explicit UNREGISTER + REGISTER).
  Status TryRegister(std::string name, CatalogPtr catalog,
                     WorkflowPtr workflow);

  /// Drops an entry; NOT_FOUND when the name is unknown. In-flight
  /// requests holding the entry's shared_ptr finish against it safely.
  Status Unregister(const std::string& name);

  /// nullptr when the name is unknown (the caller maps this to NOT_FOUND).
  /// The returned entry stays valid even if concurrently unregistered.
  std::shared_ptr<const RegisteredWorkflow> Find(
      const std::string& name) const;

  std::vector<std::string> Names() const;
  size_t size() const;

  /// The cache all registered workflows share (never null).
  VerdictCache* verdict_cache() const { return cache_.get(); }

  /// Registers the built-in paper workflows under fixed seeds, so every
  /// daemon instance serves the same families the benches and tests use:
  /// fig1, prop2-chain, one-one-chain, diamond, example7-chain.
  void RegisterBuiltins();

 private:
  std::shared_ptr<RegisteredWorkflow> MakeEntry(std::string name,
                                                CatalogPtr catalog,
                                                WorkflowPtr workflow);

  std::shared_ptr<VerdictCache> cache_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<RegisteredWorkflow>> entries_;
};

}  // namespace provview

#endif  // PROVVIEW_SERVER_REGISTRY_H_
