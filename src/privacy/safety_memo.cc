#include "privacy/safety_memo.h"

#include <limits>
#include <memory>

#include "common/combinatorics.h"
#include "common/exec_control.h"
#include "privacy/standalone_privacy.h"

namespace provview {

namespace {

// splitmix64 finalizer: the per-pair mix feeding the running hashes.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

SafetyMemo::SafetyMemo(const Relation& rel, std::vector<AttrId> inputs,
                       std::vector<AttrId> outputs)
    : view_(RelationView::Borrowed(rel)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)) {
  BindPrivateCache();
  Init();
}

SafetyMemo::SafetyMemo(const Module& module, int64_t materialize_threshold)
    : view_(module.View(materialize_threshold)),
      inputs_(module.inputs()),
      outputs_(module.outputs()) {
  BindPrivateCache();
  Init();
}

SafetyMemo::SafetyMemo(const Module& module, int64_t materialize_threshold,
                       std::shared_ptr<VerdictCache> cache, uint32_t ns)
    : cache_(std::move(cache)),
      ns_(ns),
      view_(module.View(materialize_threshold)),
      inputs_(module.inputs()),
      outputs_(module.outputs()) {
  PV_CHECK_MSG(cache_ != nullptr, "SafetyMemo needs a verdict cache");
  Init();
}

SafetyMemo::SafetyMemo(RelationView view, std::vector<AttrId> inputs,
                       std::vector<AttrId> outputs)
    : view_(std::move(view)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)) {
  BindPrivateCache();
  Init();
}

void SafetyMemo::BindPrivateCache() {
  // Single-owner store: unbounded (the historical grow-with-the-search
  // behavior) and unsharded (no concurrent readers to stripe for).
  VerdictCacheConfig config;
  config.num_shards = 1;
  cache_ = std::make_shared<VerdictCache>(config);
  ns_ = cache_->RegisterNamespace("memo");
}

void SafetyMemo::Init() {
  const Schema& schema = view_.schema();
  const AttributeCatalog& catalog = *schema.catalog();
  const int universe = catalog.size();

  std::vector<AttrId> local = inputs_;
  local.insert(local.end(), outputs_.begin(), outputs_.end());
  local_pos_.reserve(local.size());
  for (AttrId id : local) {
    const int p = schema.PositionOf(id);
    PV_CHECK_MSG(p >= 0, "view schema misses module attr " << id);
    local_pos_.push_back(p);
  }

  // An attribute cannot change the verdict if its domain has one value or
  // it is constant across R (its presence changes neither the visible-input
  // grouping nor the visible-output distinct counts). One streaming pass
  // detects the constant columns.
  std::vector<uint8_t> constant(local.size(), 1);
  std::vector<Value> first(local.size(), 0);
  bool have_first = false;
  std::vector<Value> block;
  const size_t arity = static_cast<size_t>(schema.arity());
  std::unique_ptr<RowSupplier> rows = view_.NewSupplier();
  int64_t n;
  while ((n = rows->NextBlock(&block)) > 0) {
    for (int64_t r = 0; r < n; ++r) {
      const Value* row = &block[static_cast<size_t>(r) * arity];
      if (!have_first) {
        for (size_t c = 0; c < local.size(); ++c) {
          first[c] = row[local_pos_[c]];
        }
        have_first = true;
        continue;
      }
      for (size_t c = 0; c < local.size(); ++c) {
        if (constant[c] && row[local_pos_[c]] != first[c]) constant[c] = 0;
      }
    }
  }

  effective_ = Bitset64(universe);
  for (size_t c = 0; c < local.size(); ++c) {
    if (catalog.DomainSize(local[c]) <= 1) continue;
    if (have_first && constant[c]) continue;
    effective_.Set(local[c]);
  }
}

std::pair<SafetyMemo::ProjectionKey, int64_t> SafetyMemo::ScanProjection(
    const Bitset64& effective_visible, int64_t hidden_ext) const {
  // Effective-visible row positions, split by side.
  std::vector<int> in_pos, out_pos;
  for (size_t j = 0; j < inputs_.size(); ++j) {
    if (effective_visible.Test(inputs_[j])) {
      in_pos.push_back(local_pos_[j]);
    }
  }
  for (size_t j = 0; j < outputs_.size(); ++j) {
    if (effective_visible.Test(outputs_[j])) {
      out_pos.push_back(local_pos_[inputs_.size() + j]);
    }
  }

  // One shared ScanVisibleGroups pass: the first-seen pair sequence feeds
  // the order-sensitive hashes and its per-group counts determine Γ.
  // First-seen order over the view's fixed row order is canonical, so
  // equal-projection hidden sets produce equal keys even when the
  // underlying values differ — and both backends walk rows in the same
  // order, so keys agree across materialized and streaming passes.
  ProjectionKey key;
  key.hidden_ext = hidden_ext;
  key.h1 = 0x8A91A6D40BF42040ull;
  key.h2 = 0xC83A91E1DB6A2BB1ull;
  std::unique_ptr<RowSupplier> rows = view_.NewSupplier();
  const int64_t min_count =
      ScanVisibleGroups(rows.get(), in_pos, out_pos, [&key](uint64_t pair) {
        key.h1 = key.h1 * 0x100000001B3ull + Mix64(pair);
        key.h2 = key.h2 * 0x9E3779B97F4A7C15ull + Mix64(~pair);
      });
  const int64_t gamma = min_count == std::numeric_limits<int64_t>::max()
                            ? min_count  // empty relation
                            : SaturatingMul(min_count, hidden_ext);
  return {key, gamma};
}

std::unique_ptr<SafetyMemo> SafetyMemo::NewOverlay() const {
  PV_CHECK_MSG(base_ == nullptr, "overlay of an overlay memo");
  std::unique_ptr<SafetyMemo> overlay(new SafetyMemo());
  overlay->view_ = view_;
  overlay->inputs_ = inputs_;
  overlay->outputs_ = outputs_;
  overlay->effective_ = effective_;
  overlay->local_pos_ = local_pos_;
  overlay->base_ = this;
  return overlay;
}

std::string SafetyMemo::SignatureKeyBytes(const SignatureKey& sig) const {
  std::string bytes;
  bytes.reserve(8 + sig.first.blocks().size() * 8);
  AppendU64(&bytes, static_cast<uint64_t>(sig.second));
  for (uint64_t block : sig.first.blocks()) AppendU64(&bytes, block);
  return bytes;
}

std::string SafetyMemo::ProjectionKeyBytes(const ProjectionKey& pkey) const {
  std::string bytes;
  bytes.reserve(24);
  AppendU64(&bytes, pkey.h1);
  AppendU64(&bytes, pkey.h2);
  AppendU64(&bytes, static_cast<uint64_t>(pkey.hidden_ext));
  return bytes;
}

bool SafetyMemo::FindSignature(const SignatureKey& sig,
                               int64_t* gamma) const {
  if (base_ != nullptr) {
    auto it = signature_staging_.find(sig);
    if (it != signature_staging_.end()) {
      *gamma = it->second;
      return true;
    }
    return base_->FindSignature(sig, gamma);
  }
  return cache_->Lookup(ns_, VerdictKeyClass::kSignature,
                        SignatureKeyBytes(sig), gamma);
}

bool SafetyMemo::FindProjection(const ProjectionKey& pkey,
                                int64_t* gamma) const {
  if (base_ != nullptr) {
    auto it = projection_staging_.find(pkey);
    if (it != projection_staging_.end()) {
      *gamma = it->second;
      return true;
    }
    return base_->FindProjection(pkey, gamma);
  }
  return cache_->Lookup(ns_, VerdictKeyClass::kProjection,
                        ProjectionKeyBytes(pkey), gamma);
}

void SafetyMemo::StoreSignature(const SignatureKey& sig, int64_t gamma,
                                const ExecControl* control) {
  if (base_ != nullptr) {
    signature_staging_.emplace(sig, gamma);
    return;
  }
  cache_->Insert(ns_, VerdictKeyClass::kSignature, SignatureKeyBytes(sig),
                 gamma, control);
}

void SafetyMemo::StoreProjection(const ProjectionKey& pkey, int64_t gamma,
                                 const ExecControl* control) {
  if (base_ != nullptr) {
    projection_staging_.emplace(pkey, gamma);
    return;
  }
  cache_->Insert(ns_, VerdictKeyClass::kProjection, ProjectionKeyBytes(pkey),
                 gamma, control);
}

SafetyMemo::SignatureKey SafetyMemo::MakeSignature(
    const Bitset64& hidden) const {
  const AttributeCatalog& catalog = *view_.schema().catalog();
  int64_t hidden_ext = 1;
  for (AttrId id : outputs_) {
    if (id < hidden.size() && hidden.Test(id)) {
      hidden_ext = SaturatingMul(hidden_ext, catalog.DomainSize(id));
    }
  }
  return SignatureKey(Difference(effective_, hidden), hidden_ext);
}

int64_t SafetyMemo::MaxGamma(const Bitset64& hidden, SafeSearchStats* stats,
                             LookupLog* log, const ExecControl* control) {
  PV_CHECK_MSG(stats != nullptr || log != nullptr,
               "MaxGamma needs stats (direct mode) or a log (worker mode)");
  SignatureKey sig = MakeSignature(hidden);
  int64_t cached = 0;
  if (FindSignature(sig, &cached)) {
    if (log != nullptr) {
      log->records.push_back({std::move(sig), ProjectionKey{}, cached, false});
    } else {
      ++stats->cache_hits;
      ++stats->signature_hits;
    }
    return cached;
  }
  const auto [pkey, gamma] = ScanProjection(sig.first, sig.second);
  if (FindProjection(pkey, &cached)) {
    StoreSignature(sig, cached, control);
    if (log != nullptr) {
      log->records.push_back({std::move(sig), pkey, cached, true});
    } else {
      ++stats->cache_hits;
      ++stats->projection_hits;
    }
    return cached;
  }
  StoreProjection(pkey, gamma, control);
  StoreSignature(sig, gamma, control);
  if (log != nullptr) {
    log->records.push_back({std::move(sig), pkey, gamma, true});
  } else {
    ++stats->checker_calls;
  }
  return gamma;
}

bool SafetyMemo::IsSafe(const Bitset64& hidden, int64_t gamma,
                        SafeSearchStats* stats, LookupLog* log,
                        const ExecControl* control) {
  PV_CHECK_MSG(gamma >= 1, "gamma must be >= 1");
  return MaxGamma(hidden, stats, log, control) >= gamma;
}

void SafetyMemo::AbsorbLog(const LookupLog& log, SafeSearchStats* stats) {
  for (const LookupLog::Record& rec : log.records) {
    int64_t cached = 0;
    if (FindSignature(rec.sig, &cached)) {
      ++stats->cache_hits;
      ++stats->signature_hits;
      continue;
    }
    if (!rec.scanned) {
      // The worker answered this from a settled signature, but the replay
      // misses — only possible when a bounded shared cache evicted the
      // entry in between. The verdict itself is settled (deterministic);
      // re-seed it and account the hit the worker actually had.
      StoreSignature(rec.sig, rec.gamma, nullptr);
      ++stats->cache_hits;
      ++stats->signature_hits;
      continue;
    }
    if (FindProjection(rec.pkey, &cached)) {
      StoreSignature(rec.sig, cached, nullptr);
      ++stats->cache_hits;
      ++stats->projection_hits;
      continue;
    }
    ++stats->checker_calls;
    StoreProjection(rec.pkey, rec.gamma, nullptr);
    StoreSignature(rec.sig, rec.gamma, nullptr);
  }
}

}  // namespace provview
