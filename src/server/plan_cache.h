// PlanCache: parameterized plan-shape cache for the serving layer.
//
// The paper measures a real optimization-time overhead for bitvector-aware
// costing (Section 6.5: Algorithm 3 ordering, filter placement, cost-based
// pruning all run per query). Decision-support traffic is template-heavy —
// the same join graph and predicate *structure* arrives again and again
// with varying literals — so the cache keys plans by **shape** and
// re-binds constants per query instead of missing on every changed
// literal.
//
// == Keying ==
//
// The key is (optimizer options, JoinGraph::ShapeSignature): relation
// tables + predicate shapes with constants as typed `?` slots
// (src/plan/predicate_shape.h), plus edges and uniqueness flags. Aliases
// are deliberately excluded — two queries that differ only in how
// occurrences are named share a plan. Optimizer knobs are included because
// they change the produced plan (mode, lambda threshold, fp rate, DP
// caps). A query whose predicates have no constant slots degenerates to
// the old exact-match cache: its lookups always compare equal.
//
// == Lookup = match + re-bind + verify on demand ==
//
// Lookup matches on shape, then compares the query's constant slot table
// against the entry's. Identical constants: the entry itself is served
// (zero-copy, the degenerate exact hit). Moved constants: the entry's
// graph is copied, the query's predicates installed, and **only the moved
// relations'** selectivities re-estimated (AttachRelationStatistics —
// exact single-table cardinalities). Then one OrderJoins + PruneFilters
// runs on the rebound graph (`verifications`) and its PlanChoiceKey is
// compared with the entry's: a match serves a private executable instance
// with the cached join order (`rebinds`); a mismatch escalates
// (`reoptimizations`). No verified point is remembered — see
// src/optimizer/parameterized.h for why.
//
// A stale entry or mismatched slot table escalates without a
// verification. On any escalation the caller runs OptimizeParameterized
// and Insert *replaces* the entry.
//
// == Feedback ==
//
// After execution, RecordObservedLambdas folds the executed plan's
// observed per-filter lambdas (FilterStats::ObservedLambda — exact, merged
// once per query) into the entry as an EWMA. When the EWMA drifts further
// than `lambda_drift_margin` from the optimize-time estimate, the entry is
// marked stale (`drift_invalidations`) and the next shape hit
// re-optimizes — the paper's robustness margin made runtime-live.
//
// == Ownership and concurrent execution ==
//
// A Plan borrows its JoinGraph (`Plan::graph` is a raw pointer), so every
// served instance owns the graph its plan points at: cache entries own a
// copy, rebound instances own their private rebound copy. Entries are
// handed out as shared_ptr<const CachedPlan>: eviction, replacement, or
// invalidation never frees a plan another client thread is still
// executing, and executing a cached plan is read-only (CompilePlan/
// ExecutePlan build fresh operator trees and a fresh FilterRuntime per
// execution), so any number of clients may run the same entry at once.
// The only mutable entry state is the feedback block (EWMA under its
// mutex, the stale flag an atomic).
//
// == Invalidation ==
//
// Every entry snapshots Catalog::version() (DDL bumps it; bulk data loads
// bump it via Catalog::BumpVersion). A lookup under a newer version
// flushes the cache — cached plans bind Table pointers and
// statistics-derived join orders, either of which the change may have
// invalidated.
//
// == Counters ==
//
// Every outcome is counted where it happens, as a registry counter
// (bqo_plan_cache_<field>_total, src/obs/metrics_registry.h; entries is a
// gauge, bqo_plan_cache_entries), so exports are monotonic and rate()
// works. stats() reads them back as PlanCacheStats (src/exec/metrics.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/metrics.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/optimizer/parameterized.h"

namespace bqo {

/// \brief One cached (or privately rebound) plan: the optimized plan, the
/// owned graph copy it is bound to, the annotations reuse keys on, and the
/// optimize-time measurements a hit amortizes.
struct CachedPlan {
  JoinGraph graph;  ///< owned copy; plan.graph points at this member
  Plan plan;
  /// Estimated bitvector-aware Cout of the cached plan — re-reported on
  /// hits so serving metrics stay comparable with the miss path.
  double estimated_cost = 0;
  int pruned_filters = 0;
  int64_t optimize_ns = 0;  ///< what the hit saved

  // ---- Reuse annotations (src/optimizer/parameterized.h) ----
  std::vector<std::vector<Value>> constants;  ///< optimize-time slot table
  std::string choice_key;                     ///< PlanChoiceKey(plan)
  std::vector<double> estimated_lambda;       ///< per filter id

  // ---- Feedback block ----
  /// Observed-lambda EWMA per filter id (< 0 = no samples yet); guarded
  /// by feedback_mu.
  mutable std::vector<double> lambda_ewma;
  mutable std::mutex feedback_mu;
  /// Set once the EWMA drifts past the margin; read lock-free at lookup.
  mutable std::atomic<bool> stale{false};
};

struct PlanCacheOptions {
  size_t capacity = 64;  ///< LRU capacity (>= 1)
  /// Drift margin on observed lambda: an entry whose per-filter EWMA
  /// leaves [estimate - margin, estimate + margin] is marked stale and
  /// re-optimized on its next shape hit. <= 0 disables drift feedback.
  /// Env overlay: BQO_DRIFT_MARGIN (ApplyServingEnvOverrides).
  double lambda_drift_margin = 0.25;
  /// EWMA smoothing factor for observed lambda (0 < alpha <= 1; higher =
  /// reacts faster). Env overlay: BQO_EWMA_ALPHA.
  double lambda_ewma_alpha = 0.3;
};

class PlanCache {
 public:
  /// \brief Counters register in `registry` (borrowed; must outlive the
  /// cache), or in a registry of the cache's own when null.
  explicit PlanCache(PlanCacheOptions options,
                     MetricsRegistry* registry = nullptr);
  /// \brief Convenience: default drift knobs with this LRU capacity.
  explicit PlanCache(size_t capacity);

  /// \brief Outcome of a shape lookup; see the header comment.
  struct LookupOutcome {
    enum class Kind {
      kMiss,        ///< shape absent: optimize + Insert
      kServed,      ///< `instance` is executable (exact or rebound)
      kReoptimize,  ///< shape present but reuse refused: optimize +
                    ///< Insert, which replaces the entry
    };
    Kind kind = Kind::kMiss;
    /// kServed: the plan to execute — the cache entry itself on an
    /// exact-constant hit, a private rebound instance otherwise.
    std::shared_ptr<const CachedPlan> instance;
    /// kServed/kReoptimize: the cache-resident entry (feedback target —
    /// pass to RecordObservedLambdas after executing `instance`).
    std::shared_ptr<const CachedPlan> entry;
    /// kServed: true when >= 1 constant slot moved and was re-bound.
    bool rebound = false;
  };

  /// \brief Shape lookup + constant re-bind for `query_graph` (bound
  /// tables and actual literals required; statistics not required — only
  /// moved relations are re-estimated, against the entry's recorded
  /// values). `catalog_version` is the current Catalog::version(); if it
  /// differs from the version the cache last saw, every entry is flushed
  /// first (counted as one invalidation) and the lookup misses. A
  /// verification costs with `stats` under `options` (those the signature
  /// was made with). `trace` (optional) records the re-bind work as a
  /// span, with the verification as a verify span inside it
  /// (src/obs/trace.h).
  LookupOutcome Lookup(const std::string& shape_signature,
                       int64_t catalog_version, const JoinGraph& query_graph,
                       StatsCatalog* stats, const OptimizerOptions& options,
                       QueryTrace* trace = nullptr);

  /// \brief Insert the result of optimizing `graph` under
  /// `shape_signature` (OptimizeParameterized), copying the graph so the entry outlives the
  /// caller's; returns the entry (also handed to concurrent clients on
  /// later hits). Replaces an existing entry under the same signature —
  /// the re-optimization escalation path — and evicts the
  /// least-recently-used entry at capacity.
  std::shared_ptr<const CachedPlan> Insert(const std::string& shape_signature,
                                           int64_t catalog_version,
                                           const JoinGraph& graph,
                                           ParameterizedPlan optimized);

  /// \brief Fold an executed query's observed per-filter lambdas into
  /// `entry`'s EWMA; marks the entry stale (one drift_invalidation) when
  /// any filter's EWMA drifts past the margin. Call only for queries that
  /// completed OK — a cancelled query's partial counters are void.
  void RecordObservedLambdas(const std::shared_ptr<const CachedPlan>& entry,
                             const std::vector<FilterStats>& filters);

  /// \brief Drop every entry (counted as an invalidation).
  void Invalidate();

  PlanCacheStats stats() const;

  /// \brief Canonical shape signature of (options, graph): the optimizer
  /// knobs that change the produced plan, then
  /// JoinGraph::ShapeSignature().
  static std::string ShapeSignature(const JoinGraph& graph,
                                    const OptimizerOptions& options);

 private:
  struct Slot {
    std::shared_ptr<const CachedPlan> entry;
    std::list<std::string>::iterator lru_pos;  ///< into lru_ (MRU front)
  };

  void InvalidateLocked();

  const PlanCacheOptions options_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> entries_;
  std::list<std::string> lru_;  ///< front = most recently used
  int64_t seen_catalog_version_ = -1;

  std::unique_ptr<MetricsRegistry> own_registry_;  ///< when none was given
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Counter* invalidations_;
  Counter* shape_hits_;
  Counter* rebinds_;
  Counter* verifications_;
  Counter* reoptimizations_;
  Counter* drift_invalidations_;
  Gauge* entries_gauge_;  ///< set under mu_ whenever entries_ changes
};

}  // namespace bqo
