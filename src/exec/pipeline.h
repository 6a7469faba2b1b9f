// Pipeline decomposition and the one pipeline driver every plan runs on.
//
// A *pipeline* is the maximal streaming chain between pipeline breakers in
// the compiled operator tree: it starts at a ScanOperator source and runs
// upward through hash-join *probe* sides until an operator that must
// materialize its input — a hash-join build or the final aggregate. Every
// join is a hash join, so every pipeline bottoms out in a scan.
// BuildProbePipeline() performs that decomposition; the breakers drive
// their pipelines from Open(), so the recursive Open() order is the
// pipeline schedule and realizes Algorithm 1's filter-dependency order by
// construction: a join's build pipeline (which creates the join's
// bitvector filter at the barrier) always completes before the probe
// pipeline that consumes the filter starts.
//
// == The driver ==
//
// One worker loop runs every pipeline at every thread count: a worker
// claims a scan morsel, streams it through the scan -> probe -> ... ->
// probe chain (each stage pulls its input from the stage below through a
// non-owning callback), and hands each output batch to the breaker's sink.
// Two sinks exist:
//
//  * DrainPipeline — a hash-join build. Rows are appended row-major; with
//    more than one worker each morsel's rows form a chunk and the chunks
//    are reassembled by morsel position, which equals the one-worker row
//    order exactly (scan rows stream in table-row order and every probe
//    stage is order-preserving). The hash table is therefore
//    byte-identical at every thread count.
//  * FoldPipeline — the final aggregate. Each worker folds its batches
//    into its own PartialAggState (aggregate.h); the fold commutes, so the
//    merged group map, total and checksum equal the one-worker fold.
//
// Only the top pipeline's batches may carry row multiplicities (batch.h):
// its joins that output no build column count their matches instead of
// repeating probe rows. A build pipeline's joins never count, and
// DrainPipeline CHECKs that its batches carry none.
//
// With exec.threads == 1 the single worker runs inline on the caller: the
// scan's morsel is the whole table, no pool task is spawned and no chunk
// is copied. With N > 1 workers the loop runs as N tasks on the shared
// WorkerPool (src/server/worker_pool.h) over exec.morsel_rows morsels; the
// bitvector filters and join tables are read-only by then, so workers
// share them without locks.
//
// Stats discipline (engine-wide): each worker accumulates FilterStats,
// row counters and per-stage wall time (a TimerGuard around every stage
// call, children included) in its private state; the driver merges them
// into the operators exactly once, after the workers are joined, so merged
// probed/passed (and ObservedLambda) and every row count equal the
// one-worker counts. Pool tasks also read their thread's CPU clock once at
// entry and once at exit; the sum reaches the breaker's worker_cpu_ns
// (metrics.h).
#pragma once

#include <vector>

#include "src/exec/aggregate.h"
#include "src/exec/exec_config.h"
#include "src/exec/hash_join.h"
#include "src/exec/scan.h"

namespace bqo {

/// \brief A decomposed streaming chain: scan source plus the hash joins
/// whose probe sides lie on it, bottom-up (probes[0] consumes source
/// batches, probes[i+1] consumes probes[i]'s output).
struct Pipeline {
  /// Morsel source; BuildProbePipeline always sets it.
  ScanOperator* source = nullptr;
  std::vector<HashJoinOperator*> probes;
};

/// \brief Decompose the streaming chain rooted at `op`: descend through
/// hash-join probe children down to the scan. CHECK-fails on any other
/// operator (the compiler emits only scans and hash joins below the
/// aggregate).
Pipeline BuildProbePipeline(PhysicalOperator* op);

/// \brief Drain `pipe` with exec.threads workers and return every produced
/// row, row-major over the pipeline's output schema, in canonical (one-
/// worker) order. The caller must have Open()ed the pipeline's operators
/// (a hash-join build does this via its recursive child Open). `owner`
/// (the building join) receives parallel_workers and worker_cpu_ns when
/// more than one worker ran.
std::vector<int64_t> DrainPipeline(const Pipeline& pipe,
                                   const ExecConfig& exec,
                                   OperatorStats* owner);

/// \brief Fold every row `pipe` produces through `fold`, one partial per
/// worker. Same preconditions and `owner` reporting as DrainPipeline. The
/// kAggregateFold fault site fires per folded batch and cancels the
/// query (first-error-wins).
std::vector<PartialAggState> FoldPipeline(const Pipeline& pipe,
                                          const ExecConfig& exec,
                                          const AggFold& fold,
                                          OperatorStats* owner);

/// \brief Insert `n` canonical-order key hashes into `filter` (freshly
/// created via CreateFilter(config, n)), wide when profitable: workers
/// build per-partition partials (Bloom partials sized like `filter` so the
/// geometries match, with insert tracking enabled) and fold them in
/// partition order through BitvectorFilter::MergeFrom, reproducing the
/// sequential bits and NumInserted exactly for every kind.
///
/// `ctx` (optional) makes the fill cancellable: inserts poll it every few
/// thousand keys and a fired kFilterFill fault cancels it (first-error-
/// wins); a cancelled fill leaves the filter partially built — harmless,
/// since the whole query's results are void once its context is cancelled.
void FillFilterParallel(BitvectorFilter* filter, const FilterConfig& config,
                        const uint64_t* hashes, int64_t n,
                        const ExecConfig& exec, QueryContext* ctx = nullptr);

}  // namespace bqo
