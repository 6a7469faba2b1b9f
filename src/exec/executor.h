// Plan execution: lowers an annotated Plan (join tree + Algorithm 1 filter
// placement) into a physical operator tree and runs it.
//
// The same Plan object that was costed is executed; filter slots are shared
// through a FilterRuntime so a filter created at one hash join is probed at
// the operator Algorithm 1 pushed it to.
//
// == Pipeline execution ==
//
// The compiled tree executes as a schedule of pipelines (pipeline.h)
// separated by its breakers (hash-join builds and the aggregate), all run
// by one pipeline driver at every thread count — one plan at every thread
// count. Every join compiles to a HashJoinOperator, so every pipeline
// bottoms out in a scan:
//
//  * Each hash join's Open() drains its build-side pipeline into the
//    bucket-grouped table (canonical-order reassembly when wide), and
//    creates its bitvector filter — from per-worker partials combined
//    through BitvectorFilter::MergeFrom at threads > 1
//    (FillFilterParallel).
//  * The aggregate's Open() drives the topmost probe chain (scan -> probe
//    -> ... -> probe): each worker folds its output into its own
//    PartialAggState and the aggregate merges the partials — no raw
//    batches cross threads above the top probe chain.
//
// The recursive Open() order realizes Algorithm 1's filter-dependency
// order: every build pipeline (and the filter it creates) completes before
// the probe pipeline that consumes the filter starts. At any thread count
// the merged probed/passed/ObservedLambda counters — and the aggregate's
// ResultChecksum()/NumGroups()/TotalValue() — equal the one-worker values
// (per-worker accumulate, merge-once — see metrics.h, aggregate.h).
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
  /// Threading knobs: how many workers run each pipeline (pipeline.h).
  /// exec.threads == 1 runs each pipeline inline on the calling thread.
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
