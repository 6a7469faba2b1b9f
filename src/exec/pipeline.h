// Pipeline decomposition and morsel-parallel pipeline execution.
//
// A *pipeline* is the maximal streaming chain between pipeline breakers in
// the compiled operator tree: it starts at a morsel-parallel source (a
// ScanOperator) and runs upward through hash-join *probe* sides until an
// operator that must materialize its input — a hash-join build or the final
// aggregate. Every join is a hash join, so every pipeline bottoms out in a
// scan and every pipeline can run wide. BuildProbePipeline() performs that
// decomposition; walking the whole tree this way yields an ordered pipeline
// schedule that realizes Algorithm 1's filter-dependency order by
// construction: a join's build-side pipeline (which creates the join's
// bitvector filter at the barrier) always completes, via the recursive
// Open() order, before the probe-side pipeline that consumes the filter
// starts.
//
// Execution: N workers each own a PipelineWorkerState (scan scratch + one
// re-entrant ProbeState per join on the chain) and pull scan morsels off the
// shared cursor, running hash -> MayContainBatch -> gather -> probe -> probe
// entirely thread-locally; the bitvector filters and join tables are
// read-only by the time any pipeline runs. Two draining modes:
//
//  * Free-running (PipelineParallelNext): batches may span morsels; used by
//    ExchangeOperator above the topmost probe chain, whose workers fold
//    their output batches into thread-local PartialAggStates (aggregate.h)
//    that the aggregate sink merges. This is how the executor runs the
//    plan's final aggregate wide — the fold commutes, so the merged group
//    map, total, and checksum equal the single-threaded fold exactly.
//  * Canonical (DrainPipelineParallel): workers claim one morsel at a time
//    and the per-morsel output chunks are reassembled in morsel order, which
//    equals the single-threaded row order exactly (scan rows stream in
//    table-row order and every probe stage is order-preserving). Hash-join
//    builds use this, so the hash table is byte-identical at every thread
//    count.
//
// Stats discipline (engine-wide): workers accumulate
// FilterStats/OperatorStats deltas in their private states; the drain owner
// merges them exactly once after joining the workers, so merged
// probed/passed (and ObservedLambda) equal the single-threaded counts.
#pragma once

#include <vector>

#include "src/exec/exec_config.h"
#include "src/exec/hash_join.h"
#include "src/exec/scan.h"

namespace bqo {

/// \brief A decomposed streaming chain: scan source plus the hash joins
/// whose probe sides lie on it, bottom-up (probes[0] consumes source
/// batches, probes[i+1] consumes probes[i]'s output).
struct Pipeline {
  /// Morsel-parallel source; BuildProbePipeline always sets it.
  ScanOperator* source = nullptr;
  std::vector<HashJoinOperator*> probes;
};

/// \brief Decompose the streaming chain rooted at `op`: descend through
/// hash-join probe children down to the scan. CHECK-fails on any other
/// operator (the compiler emits only scans and hash joins below the
/// aggregate).
Pipeline BuildProbePipeline(PhysicalOperator* op);

/// \brief Per-worker execution state for one pipeline.
struct PipelineWorkerState {
  ScanOperator::WorkerState scan;
  std::vector<HashJoinOperator::ProbeState> probes;  ///< aligned w/ Pipeline
};

/// \brief Size `ws` for `pipe`. Call after the pipeline's operators are
/// Open (the scan's filter set is fixed then). The probe states start
/// empty: each join allocates its scratch when the first probe row
/// reaches it.
void InitPipelineWorker(const Pipeline& pipe, PipelineWorkerState* ws);

/// \brief Produce the pipeline's next output batch, claiming scan morsels
/// freely. Thread-safe across workers once the operators are Open, each
/// with its own state. False when the scan cursor is exhausted and the
/// batch came up empty.
bool PipelineParallelNext(const Pipeline& pipe, Batch* out,
                          PipelineWorkerState* ws);

/// \brief Fold `ws`'s accumulators into the pipeline's operators. Call
/// exactly once per worker, after it is joined; not thread-safe.
void MergePipelineWorkerStats(const Pipeline& pipe, PipelineWorkerState* ws);

/// \brief Drain the whole pipeline with exec.threads workers and return
/// every produced row, row-major over the pipeline's output schema, in
/// canonical (single-threaded) order: workers claim one scan morsel at a
/// time and the per-morsel chunks are reassembled by morsel position. All
/// per-worker stats are merged before returning. The caller must have
/// Open()ed the pipeline's operators (a hash-join build does this via its
/// recursive child Open).
std::vector<int64_t> DrainPipelineParallel(const Pipeline& pipe,
                                           const ExecConfig& exec);

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
