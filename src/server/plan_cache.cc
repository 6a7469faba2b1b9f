#include "src/server/plan_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/string_util.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

PlanCache::PlanCache(PlanCacheOptions options, MetricsRegistry* registry)
    : options_(options), capacity_(std::max<size_t>(1, options.capacity)) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry = own_registry_.get();
  }
  hits_ = registry->GetCounter("bqo_plan_cache_hits_total");
  misses_ = registry->GetCounter("bqo_plan_cache_misses_total");
  evictions_ = registry->GetCounter("bqo_plan_cache_evictions_total");
  invalidations_ = registry->GetCounter("bqo_plan_cache_invalidations_total");
  shape_hits_ = registry->GetCounter("bqo_plan_cache_shape_hits_total");
  rebinds_ = registry->GetCounter("bqo_plan_cache_rebinds_total");
  verifications_ = registry->GetCounter("bqo_plan_cache_verifications_total");
  reoptimizations_ =
      registry->GetCounter("bqo_plan_cache_reoptimizations_total");
  drift_invalidations_ =
      registry->GetCounter("bqo_plan_cache_drift_invalidations_total");
  entries_gauge_ = registry->GetGauge("bqo_plan_cache_entries");
}

PlanCache::PlanCache(size_t capacity)
    : PlanCache([capacity] {
        PlanCacheOptions options;
        options.capacity = capacity;
        return options;
      }()) {}

std::string PlanCache::ShapeSignature(const JoinGraph& graph,
                                      const OptimizerOptions& options) {
  // Optimizer knobs first — they change the produced plan, so they are
  // part of the identity of the cached artifact.
  std::string sig = StringFormat(
      "mode=%s;lambda=%.9g;fp=%.9g;dp=%d;exh=%zu;",
      OptimizerModeName(options.mode), options.lambda_thresh,
      options.filter_fp_rate, options.max_dp_relations,
      options.exhaustive_limit);
  sig += graph.ShapeSignature();
  return sig;
}

PlanCache::LookupOutcome PlanCache::Lookup(const std::string& shape_signature,
                                           int64_t catalog_version,
                                           const JoinGraph& query_graph,
                                           StatsCatalog* stats,
                                           const OptimizerOptions& options,
                                           QueryTrace* trace) {
  LookupOutcome out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog_version != seen_catalog_version_) {
      if (!entries_.empty()) InvalidateLocked();
      seen_catalog_version_ = catalog_version;
    }
    auto it = entries_.find(shape_signature);
    if (it == entries_.end()) {
      misses_->Increment();
      return out;  // kMiss
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // bump to MRU
    out.entry = it->second.entry;
  }
  shape_hits_->Increment();
  const CachedPlan& entry = *out.entry;

  // The classification below runs outside mu_: re-estimation evaluates
  // predicates over base tables and a verification orders joins — far too
  // heavy for the cache lock.
  auto refuse = [&] {
    reoptimizations_->Increment();
    out.kind = LookupOutcome::Kind::kReoptimize;
    return out;
  };
  if (entry.stale.load(std::memory_order_relaxed)) return refuse();

  const std::vector<std::vector<Value>> query_constants =
      query_graph.ConstantTable();
  if (query_constants.size() != entry.constants.size()) return refuse();
  std::vector<int> moved;
  for (size_t r = 0; r < query_constants.size(); ++r) {
    if (!(query_constants[r] == entry.constants[r])) {
      moved.push_back(static_cast<int>(r));
    }
  }

  if (moved.empty()) {
    // Exact-constant hit — the degenerate (zero moved slots) case: serve
    // the shared entry itself, as the pre-shape cache did.
    hits_->Increment();
    out.kind = LookupOutcome::Kind::kServed;
    out.instance = out.entry;
    return out;
  }

  // Re-bind: private instance with the query's predicates and fresh
  // statistics for the moved relations only.
  ScopedSpan rebind_span(trace, SpanKind::kRebind, "rebind");
  auto inst = std::make_shared<CachedPlan>();
  inst->graph = entry.graph;  // optimize-time constants + statistics
  for (int r : moved) {
    inst->graph.relation(r).predicate = query_graph.relation(r).predicate;
    AttachRelationStatistics(&inst->graph, r);  // only the moved slots
  }
  // Aliases are naming, not semantics (excluded from the shape), but the
  // served instance should carry the query's names in labels and metrics.
  for (int r = 0; r < inst->graph.num_relations(); ++r) {
    inst->graph.relation(r).alias = query_graph.relation(r).alias;
  }

  {
    // Is the cached plan still the optimizer's choice at this point?
    ScopedSpan verify_span(trace, SpanKind::kVerify, "verify");
    EstimatedCoutModel model(stats, options.filter_fp_rate);
    Plan plan = OrderJoins(inst->graph, options, &model);
    PruneFilters(&plan, options, &model);
    verifications_->Increment();
    if (PlanChoiceKey(plan) != entry.choice_key) return refuse();
  }

  inst->plan = entry.plan.Clone();
  inst->plan.graph = &inst->graph;
  inst->estimated_cost = entry.estimated_cost;
  inst->pruned_filters = entry.pruned_filters;
  inst->optimize_ns = entry.optimize_ns;

  hits_->Increment();
  rebinds_->Increment();
  out.kind = LookupOutcome::Kind::kServed;
  out.instance = std::move(inst);
  out.rebound = true;
  return out;
}

std::shared_ptr<const CachedPlan> PlanCache::Insert(
    const std::string& shape_signature, int64_t catalog_version,
    const JoinGraph& graph, ParameterizedPlan optimized) {
  auto entry = std::make_shared<CachedPlan>();
  entry->graph = graph;  // owned copy: the caller's graph is stack-local
  entry->plan = std::move(optimized.optimized.plan);
  entry->plan.graph = &entry->graph;  // re-bind to the stable copy
  entry->estimated_cost = optimized.optimized.estimated_cost;
  entry->pruned_filters = optimized.optimized.pruned_filters;
  entry->optimize_ns = optimized.optimize_ns;
  entry->constants = std::move(optimized.constants);
  entry->choice_key = PlanChoiceKey(entry->plan);
  entry->estimated_lambda = std::move(optimized.estimated_lambda);
  entry->lambda_ewma.assign(entry->estimated_lambda.size(), -1.0);

  std::lock_guard<std::mutex> lock(mu_);
  if (catalog_version != seen_catalog_version_) {
    if (!entries_.empty()) InvalidateLocked();
    seen_catalog_version_ = catalog_version;
  }
  auto it = entries_.find(shape_signature);
  if (it != entries_.end()) {
    // Replace: the re-optimization escalation swaps the stale or refused
    // entry for the fresh one. (A concurrent double-optimize lands here
    // too; both entries are fresh and equivalent, so last-wins is fine.)
    it->second.entry = entry;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return entry;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_->Increment();
  }
  lru_.push_front(shape_signature);
  entries_.emplace(shape_signature, Slot{entry, lru_.begin()});
  entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
  return entry;
}

void PlanCache::RecordObservedLambdas(
    const std::shared_ptr<const CachedPlan>& entry,
    const std::vector<FilterStats>& filters) {
  if (entry == nullptr || options_.lambda_drift_margin <= 0) return;
  bool drifted = false;
  {
    std::lock_guard<std::mutex> feedback(entry->feedback_mu);
    for (const FilterStats& fs : filters) {
      if (!fs.created || fs.probed <= 0 || fs.filter_id < 0) continue;
      const size_t id = static_cast<size_t>(fs.filter_id);
      if (id >= entry->lambda_ewma.size()) continue;
      const double observed = fs.ObservedLambda();
      double& ewma = entry->lambda_ewma[id];
      ewma = ewma < 0 ? observed
                      : (1.0 - options_.lambda_ewma_alpha) * ewma +
                            options_.lambda_ewma_alpha * observed;
      if (std::abs(ewma - entry->estimated_lambda[id]) >
          options_.lambda_drift_margin) {
        drifted = true;
      }
    }
  }
  // exchange, not store: drift_invalidations counts entries marked, not
  // post-stale executions that drift again.
  if (drifted && !entry->stale.exchange(true)) {
    drift_invalidations_->Increment();
  }
}

void PlanCache::InvalidateLocked() {
  entries_.clear();
  lru_.clear();
  entries_gauge_->Set(0);
  invalidations_->Increment();
}

void PlanCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateLocked();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out;
  out.hits = hits_->Value();
  out.misses = misses_->Value();
  out.evictions = evictions_->Value();
  out.invalidations = invalidations_->Value();
  out.entries = entries_gauge_->Value();
  out.shape_hits = shape_hits_->Value();
  out.rebinds = rebinds_->Value();
  out.verifications = verifications_->Value();
  out.reoptimizations = reoptimizations_->Value();
  out.drift_invalidations = drift_invalidations_->Value();
  return out;
}

}  // namespace bqo
