// Per-operator and per-query execution metrics.
//
// These counters regenerate the paper's measurements: CPU execution time
// (Figures 7, 8, 10; Table 4), tuples output by operator type (Figure 9),
// and bitvector filter effectiveness (the lambda of Section 6.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bqo {

enum class OperatorType : uint8_t { kScan, kHashJoin, kAggregate };

struct OperatorStats {
  OperatorType type = OperatorType::kScan;
  std::string label;
  int plan_node_id = -1;
  // Row counters count logical tuples: a batch row with multiplicity w
  // (src/exec/batch.h) counts w times, so a join that counts its matches
  // instead of repeating probe rows reports what a repeating join would.
  // Logical counters add modulo 2^64 (AddWrapping, src/common/bit_util.h):
  // stacked counting joins can reach counts past INT64_MAX that no
  // repeating join would have finished producing.
  int64_t rows_out = 0;         ///< after residual bitvector filters
  int64_t rows_prefilter = 0;   ///< before bitvector filters at this op
  /// Physical rows a hash join wrote to its output batches (kHashJoin
  /// only), merged once per worker like the counters above. Below
  /// rows_out exactly when the join emitted matched probe rows with their
  /// match counts instead of one row per match.
  int64_t rows_emitted = 0;

  // == Probe-side match accounting (kHashJoin only) ==
  //
  // Per-worker accumulation in HashJoinOperator::ProbeState, merged once
  // by MergeProbeStats (the FilterStats discipline below), so both are
  // pool-size- and thread-count-invariant. Together they give the join's
  // *measured* filter false-positive rate: a probe row that reaches this
  // join without matching any build row is a tuple the join's bitvector
  // filter should have eliminated below — so for the filter created here,
  //   leaked   = probe_rows_in - probe_rows_matched
  //   rejected = FilterStats::probed - FilterStats::passed
  //   measured_fpr = leaked / (leaked + rejected)
  // (exact when the filter's application site feeds this join directly; a
  // lower bound when intermediate operators eliminated leaked rows first —
  // see src/obs/explain.h).

  /// Probe-side input rows this join consumed (pre-match).
  int64_t probe_rows_in = 0;
  /// Probe rows that matched >= 1 build row (hash + key equality, before
  /// residual filters).
  int64_t probe_rows_matched = 0;
  /// Wall ns inside Open() and the operator's pipeline stage calls
  /// (children included), each measured by a steady-clock TimerGuard; a
  /// stage's calls are summed over the pipeline workers that made them, so
  /// at more than one worker this can exceed the wall time the plan above
  /// observed.
  int64_t ns_inclusive = 0;
  /// ns_inclusive minus children; can go negative at more than one worker,
  /// where a child's stage time is summed over workers (see ns_inclusive).
  int64_t ns_self = 0;
  /// Workers that ran the pipeline this breaker drives: the aggregate's
  /// top pipeline, or a hash join's build drain. 0 = it ran on one worker.
  int parallel_workers = 0;
  /// Summed thread-CPU ns of the pool tasks that ran this breaker's
  /// pipeline, one CPU-clock reading pair per task (0 on one worker, whose
  /// time is the driver's). Unlike ns_inclusive this is a pure CPU-clock
  /// quantity, so QueryMetrics::cpu_ns — driver CPU plus these — is immune
  /// to co-running queries on the shared WorkerPool.
  int64_t worker_cpu_ns = 0;

  // == Aggregation counters (kAggregate only) ==
  //
  // Per-worker accumulation, merged once (same discipline as FilterStats
  // below): each pipeline worker counts the rows it folds into its own
  // PartialAggState, and the aggregate sums them after joining the
  // workers. agg_rows_folded is therefore exactly the one-worker
  // aggregate's input row count at every thread count.

  /// Input rows folded into (partial) aggregate state at this operator,
  /// each weighted by its multiplicity (logical tuples).
  int64_t agg_rows_folded = 0;
  /// Sum of per-worker partial group-map sizes before the merge (the
  /// group count itself on one worker). >= the final NumGroups() whenever
  /// a group key was seen by more than one worker; the gap measures how
  /// much duplicate-group merge work the merge did.
  int64_t agg_partial_groups = 0;
};

/// Per-filter build/probe counters.
///
/// == Per-worker accumulation invariant ==
///
/// These counters are plain (non-atomic) fields. Under pipeline-parallel
/// execution every worker accumulates into its own private
/// FilterStats/OperatorStats (ScanOperator::WorkerState for pushed-down
/// scan filters, HashJoinOperator::ProbeState for join residual filters)
/// and the deltas are merged into the shared FilterRuntime exactly once,
/// after the workers are joined — so probed/passed (and ObservedLambda) are
/// exact and equal to the single-threaded counts, never torn or
/// approximately-sampled. `inserted` is thread-count-invariant too: builds
/// reassemble their inputs in canonical order and filter fills either run
/// in that order or reconstruct the sequential count during MergeFrom
/// (FillFilterParallel in pipeline.h). So every field is
/// thread-count-invariant: morsel and batch boundaries chop strides
/// differently, but the probe/pass *sets* are partition-invariant.
struct FilterStats {
  int filter_id = -1;
  bool created = false;   ///< false if pruned/disabled
  int64_t inserted = 0;
  int64_t probed = 0;
  int64_t passed = 0;
  int64_t size_bytes = 0;

  double ObservedLambda() const {
    return probed == 0
               ? 0.0
               : static_cast<double>(probed - passed) /
                     static_cast<double>(probed);
  }
};

struct QueryMetrics {
  /// Wall time of ExecutePlan (Open..Close) as seen by the driver thread.
  /// Under concurrent serving this is inflated by co-running queries; use
  /// cpu_ns to compare a query against itself across runs.
  int64_t total_ns = 0;
  /// The query's own task time: driver-thread CPU (helping-adjusted, see
  /// WorkerPool::InlineTaskCpuNanos) plus the summed per-task CPU of every
  /// pool task the query's drains ran (worker_cpu_ns above). Measured on
  /// per-thread CPU clocks (src/common/thread_clock.h), so neither pool
  /// queueing nor preemption by other queries inflates it — the workload
  /// runner's min-of-k repeat timing keys on this field.
  int64_t cpu_ns = 0;
  int64_t result_rows = 0;
  /// Order-independent checksum of the result (verifies plan equivalence).
  uint64_t result_checksum = 0;

  // Figure 9 categories.
  int64_t leaf_tuples = 0;
  int64_t join_tuples = 0;
  int64_t other_tuples = 0;

  std::vector<OperatorStats> operators;
  std::vector<FilterStats> filters;

  /// \brief Sum of post-filter operator outputs (the executed-plan Cout),
  /// modulo 2^64 like join_tuples.
  int64_t TotalIntermediateTuples() const {
    return static_cast<int64_t>(static_cast<uint64_t>(leaf_tuples) +
                                static_cast<uint64_t>(join_tuples));
  }
};

/// \brief Counters of the serving layer's plan cache (src/server/
/// plan_cache.h): a hit skips optimization entirely and amortizes the
/// bitvector-aware optimization overhead the paper's Section 6.5 measures.
/// Since the cache keys on plan *shape*, a lookup lands in exactly one of
/// hits (served from cache — exact or rebound), reoptimizations (shape
/// matched but the moved constants' verification refused reuse), or
/// misses (shape absent). An exact-constant repeat is always a hit.
struct PlanCacheStats {
  int64_t hits = 0;            ///< served from cache (exact + rebound)
  int64_t misses = 0;          ///< shape absent
  int64_t evictions = 0;       ///< LRU entries dropped at capacity
  int64_t invalidations = 0;   ///< full flushes (catalog/stats change)
  int64_t entries = 0;         ///< current cache size

  // ---- Shape-cache outcome detail ----
  /// Lookups whose shape was present (hits + reoptimizations): the
  /// template was recognized even when reuse was refused.
  int64_t shape_hits = 0;
  /// Hits that re-bound moved constants into a private plan instance
  /// (hits - rebinds = exact-constant hits, the degenerate case).
  int64_t rebinds = 0;
  /// Shape hits with moved constants, each of which ran one OrderJoins +
  /// PruneFilters on the rebound graph to check the cached choice: a
  /// match is also a rebind, a mismatch a reoptimization.
  int64_t verifications = 0;
  /// Shape hits escalated to re-optimization because their verification
  /// picked another plan. Entries carry no runtime feedback, so nothing
  /// else escalates: reoptimizations == verifications - rebinds.
  int64_t reoptimizations = 0;

  double HitRate() const {
    const int64_t lookups = hits + misses + reoptimizations;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }

  double ShapeHitRate() const {
    const int64_t lookups = hits + misses + reoptimizations;
    return lookups == 0 ? 0.0
                        : static_cast<double>(shape_hits) /
                              static_cast<double>(lookups);
  }
};

/// \brief Counters of the serving layer's build-side cache (src/server/
/// build_cache.h). Accounting invariants the unit tests pin:
/// hits + misses == lookups (every lookup resolves exactly one way — a
/// shared result is a hit, anything else, including building it yourself,
/// failing, or leaving cancelled, is a miss); single_flight_waits counts
/// each lookup that ever parked behind a leader at most once; bytes is
/// symmetric across insert/evict/invalidate (resident entries only).
struct BuildCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;    ///< served a build constructed by another query
  int64_t misses = 0;  ///< built privately (leader), failed, or gave up
  /// Lookups that waited behind an in-flight construction (once per
  /// waiter, regardless of how many times its wait loop woke).
  int64_t single_flight_waits = 0;
  int64_t evictions = 0;      ///< LRU entries dropped at the memory bound
  int64_t invalidations = 0;  ///< full flushes (catalog version change)
  int64_t entries = 0;        ///< current resident entries
  int64_t bytes = 0;          ///< current resident bytes

  double HitRate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// \brief Per-outcome counters of the serving layer (src/server/
/// query_service.h): every Execute() lands in exactly one bucket, keyed by
/// the final QueryResult::status code, so served + shed + timed_out +
/// cancelled + failed equals the total requests the service has finished.
struct ServingStats {
  int64_t served = 0;     ///< completed with an OK status
  int64_t shed = 0;       ///< rejected at admission: queue full
                          ///< (kResourceExhausted)
  int64_t timed_out = 0;  ///< deadline expired, waiting or mid-execution
                          ///< (kDeadlineExceeded)
  int64_t cancelled = 0;  ///< cooperatively cancelled by the client
                          ///< (kCancelled)
  int64_t failed = 0;     ///< any other error (e.g. an injected fault)

  int64_t Total() const {
    return served + shed + timed_out + cancelled + failed;
  }
};

}  // namespace bqo
