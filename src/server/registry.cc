#include "server/registry.h"

#include <utility>

#include "common/rng.h"
#include "generators/families.h"
#include "workflow/fig1_workflow.h"

namespace provview {

RegisteredWorkflow::~RegisteredWorkflow() {
  if (verdicts != nullptr) verdicts->DropFromCache();
}

WorkflowRegistry::WorkflowRegistry()
    : cache_(std::make_shared<VerdictCache>()) {}

WorkflowRegistry::WorkflowRegistry(const VerdictCacheConfig& config)
    : cache_(std::make_shared<VerdictCache>(config)) {}

std::shared_ptr<RegisteredWorkflow> WorkflowRegistry::MakeEntry(
    std::string name, CatalogPtr catalog, WorkflowPtr workflow) {
  // Built OUTSIDE the registry lock: binding the cache namespaces walks the
  // workflow's private modules, and lookups must not wait on that.
  auto entry = std::make_shared<RegisteredWorkflow>();
  entry->name = std::move(name);
  entry->catalog = std::move(catalog);
  entry->workflow = std::move(workflow);
  entry->verdicts = std::make_unique<WorkflowCacheNamespace>(
      *entry->workflow, cache_, entry->name);
  return entry;
}

void WorkflowRegistry::Register(std::string name, CatalogPtr catalog,
                                WorkflowPtr workflow) {
  auto entry =
      MakeEntry(std::move(name), std::move(catalog), std::move(workflow));
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[entry->name] = std::move(entry);
}

Status WorkflowRegistry::TryRegister(std::string name, CatalogPtr catalog,
                                     WorkflowPtr workflow) {
  auto entry =
      MakeEntry(std::move(name), std::move(catalog), std::move(workflow));
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto [it, inserted] = entries_.emplace(entry->name, nullptr);
  if (!inserted) {
    return Status::InvalidArgument("workflow '" + entry->name +
                                   "' is already registered; unregister it "
                                   "first");
  }
  it->second = std::move(entry);
  return Status::OK();
}

Status WorkflowRegistry::Unregister(const std::string& name) {
  std::shared_ptr<RegisteredWorkflow> doomed;  // destroyed after the lock
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown workflow '" + name + "'");
  }
  doomed = std::move(it->second);
  entries_.erase(it);
  return Status::OK();
}

std::shared_ptr<const RegisteredWorkflow> WorkflowRegistry::Find(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::string> WorkflowRegistry::Names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

size_t WorkflowRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

void WorkflowRegistry::RegisterBuiltins() {
  {
    Fig1Workflow fig1 = MakeFig1Workflow();
    Register("fig1", fig1.catalog, std::move(fig1.workflow));
  }
  {
    Prop2Chain chain = MakeProp2Chain(/*k=*/2);
    Register("prop2-chain", chain.catalog, std::move(chain.workflow));
  }
  {
    Rng rng(0x706f6473u);  // fixed seed: same workflow in every daemon
    OneOneChain chain = MakeOneOneChain(/*stages=*/3, /*k=*/2, &rng);
    Register("one-one-chain", chain.catalog, std::move(chain.workflow));
  }
  {
    Rng rng(0x706f6474u);
    DiamondWorkflow diamond =
        MakeDiamondWorkflow(/*k=*/2, /*with_tail=*/false, &rng);
    Register("diamond", diamond.catalog, std::move(diamond.workflow));
  }
  {
    Rng rng(0x706f6475u);
    Example7Chain chain = MakeExample7Chain(/*k=*/2, &rng);
    Register("example7-chain", chain.catalog, std::move(chain.workflow));
  }
}

}  // namespace provview
