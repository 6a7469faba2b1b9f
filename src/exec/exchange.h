// ExchangeOperator: morsel-parallel pipeline drain that folds the plan's
// final aggregate wide.
//
// The wrapped child is the plan's topmost probe pipeline (pipeline.h): a
// bare scan, or a scan -> probe -> ... -> probe chain of hash joins. Open()
// first opens the child — which runs every hash-join build below, itself
// wide — then submits N worker tasks to the shared WorkerPool
// (src/server/worker_pool.h; no per-query thread construction) that pull
// scan morsels off the shared cursor, stream them through the whole probe
// chain thread-locally, and fold the produced batches straight into a
// thread-local PartialAggState (aggregate.h). No raw rows cross threads
// above the top probe chain. The aggregate sink then calls DrainPartials(),
// which joins the workers and hands back the per-worker partials for the
// exact merge (MergeFrom commutes; see aggregate.h). There is no batch
// output: Next() CHECK-fails.
//
// Parallelism therefore stops at the plan's final breaker, not at the
// leaves: the executor compiles exactly one exchange, directly below the
// aggregate, whenever threads > 1 (executor.cc) — and the "breaker" work
// itself (the fold) runs wide too, leaving only the group-map merge serial.
//
// Stats discipline: workers accumulate FilterStats/OperatorStats deltas in
// their private PipelineWorkerState (scan scratch + per-join ProbeStates);
// DrainPartials()/Close() joins every worker and merges the deltas into the
// shared counters exactly once, so the merged probed/passed counts — at the
// scan's pushed-down filters and at every join's residual filters — equal
// the single-threaded run's (the observed-lambda numbers of Section 6.3
// stay exact under parallelism). The per-worker agg counters (rows folded,
// partial group counts) merge into this operator's agg_rows_folded /
// agg_partial_groups the same way (metrics.h).
//
// Cancellation (query_context.h): workers poll the query's context at every
// batch, and the scan polls it at every morsel claim and stride, so a
// cancelled drain runs dry in bounded time. Nothing parks on the exchange:
// the only waiter is DrainPartials()/Close() in TaskGroup::Wait, which
// helps run the workers' tasks itself.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "src/exec/aggregate.h"
#include "src/exec/exec_config.h"
#include "src/exec/pipeline.h"
#include "src/server/worker_pool.h"

namespace bqo {

class ExchangeOperator final : public PhysicalOperator {
 public:
  /// `child` must decompose into a probe pipeline (BuildProbePipeline
  /// CHECKs that) and `config` must resolve to more than one thread. `agg` is resolved against the child schema
  /// (CHECKs on missing columns); it is the fold every worker runs.
  ExchangeOperator(std::unique_ptr<PhysicalOperator> child, ExecConfig config,
                   const AggSpec& agg, std::string label);
  ~ExchangeOperator() override;

  void Open() override;
  /// No batch output; consumers call DrainPartials().
  bool Next(Batch* out) override;
  void Close() override;

  /// \brief Wait for every worker to exhaust the scan cursor, merge their
  /// pipeline stats (exactly once), and return the per-worker partial
  /// aggregates for the sink to merge. Call once per Open().
  std::vector<PartialAggState> DrainPartials();

  std::vector<PhysicalOperator*> children() override {
    return {child_.get()};
  }

 private:
  void WorkerMain(int worker_index);
  /// Await every worker task and merge their stats; idempotent.
  void Shutdown();
  /// The query's context, via the pipeline source (null if executing
  /// without one). Valid once constructed; the source outlives us.
  QueryContext* query_context() const { return pipe_.source->query_context(); }

  std::unique_ptr<PhysicalOperator> child_;
  Pipeline pipe_;  ///< decomposition of child_ (source + probe stages)
  ExecConfig config_;
  AggFold fold_;  ///< the shared fold kernel

  /// One WorkerMain task per logical worker, submitted to the shared
  /// WorkerPool (no per-query thread construction); non-null while draining.
  std::unique_ptr<WorkerPool::TaskGroup> tasks_;
  std::vector<PipelineWorkerState> workers_;
  std::vector<PartialAggState> partials_;  ///< one per worker
  /// Set by Shutdown() on an early teardown (Close without a drain, the
  /// destructor) so workers stop at the next batch instead of running the
  /// scan dry.
  std::atomic<bool> abort_{false};
};

}  // namespace bqo
