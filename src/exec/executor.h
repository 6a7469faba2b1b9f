// Plan execution: lowers an annotated Plan (join tree + Algorithm 1 filter
// placement) into a physical operator tree and runs it.
//
// The same Plan object that was costed is executed; filter slots are shared
// through a FilterRuntime so a filter created at one hash join is probed at
// the operator Algorithm 1 pushed it to.
//
// == Pipeline-parallel execution ==
//
// With exec.threads > 1 the compiled tree executes as a schedule of
// morsel-parallel pipelines (pipeline.h) separated by its breakers (hash-
// join builds and the aggregate). Every join compiles to a
// HashJoinOperator, so every pipeline bottoms out in a scan:
//
//  * Each hash join's Open() drains its build-side pipeline with N workers
//    into canonical-order partitions reassembled into the bucket-grouped
//    table, and creates its bitvector filter from per-worker partials
//    combined through BitvectorFilter::MergeFrom (FillFilterParallel).
//  * The topmost probe chain (scan -> probe -> ... -> probe) runs wide
//    behind a single ExchangeOperator compiled directly below the
//    aggregate — parallelism stops at the final breaker, not at the leaves.
//  * The final aggregate is compiled *into* that exchange (exchange.h):
//    each worker folds its probe-chain output into a thread-local
//    PartialAggState and the AggregateOperator sink merges the per-worker
//    partials — no serial consume loop and no raw batches crossing threads
//    above the top probe chain.
//
// The recursive Open() order still realizes Algorithm 1's filter-dependency
// order: every build pipeline (and the filter it creates) completes before
// the probe pipeline that consumes the filter starts. threads == 1 compiles
// the exact single-threaded plan; at any thread count the merged
// probed/passed/ObservedLambda counters — and the aggregate's
// ResultChecksum()/NumGroups()/TotalValue() — equal the single-threaded
// values (per-worker accumulate, merge-once — see metrics.h, aggregate.h).
#pragma once

#include <memory>

#include "src/exec/aggregate.h"
#include "src/exec/exec_config.h"
#include "src/exec/metrics.h"
#include "src/plan/plan.h"

namespace bqo {

struct ExecutionOptions {
  /// Filter implementation used for created bitvector filters.
  FilterConfig filter_config;
  /// Threading knobs. exec.threads > 1 executes the plan pipeline-parallel:
  /// hash-join builds drain wide, and the topmost probe chain runs behind a
  /// single ExchangeOperator below the aggregate (exchange.h, pipeline.h);
  /// threads == 1 compiles exactly the single-threaded plan.
  ExecConfig exec;
  /// When false, no bitvector filters are created or probed (the paper's
  /// Appendix A / Table 4 comparison: same plan, filters ignored).
  bool use_bitvectors = true;
  /// Final aggregate; COUNT(*) by default.
  AggSpec agg;
  /// Cooperative cancellation / deadline context (borrowed; must outlive
  /// the execution). Null = ExecutePlan runs under a private context, so
  /// injected faults still unwind cooperatively but nothing external can
  /// cancel the query. Every drain loop polls it at stride boundaries; a
  /// cancelled execution returns partial (void) metrics — callers that
  /// pass a context must check its status() before trusting the results.
  QueryContext* context = nullptr;
  /// Cross-query build-side cache (borrowed; may be null — then every hash
  /// join constructs its build privately, the default for direct callers).
  /// catalog_version is the version the plan was bound under; the cache
  /// keys entries and in-flight constructions on it so shared builds
  /// invalidate with the plans that reference them (src/server/
  /// build_cache.h).
  BuildCache* build_cache = nullptr;
  int64_t catalog_version = 0;
};

/// \brief Execute `plan` and return its metrics. The plan must Validate()
/// and have been through PushDownBitvectors (or ClearBitvectors).
QueryMetrics ExecutePlan(const Plan& plan,
                         const ExecutionOptions& options = {});

/// \brief Build the operator tree without running it (tests inspect it).
std::unique_ptr<AggregateOperator> CompilePlan(const Plan& plan,
                                               const ExecutionOptions& options,
                                               FilterRuntime* runtime);

}  // namespace bqo
