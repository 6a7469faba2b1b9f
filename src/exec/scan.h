// Table scan: local predicate selection plus pushed-down bitvector probes.
//
// The scan reads its relation's selection — the packed bits the statistics
// layer evaluated the predicate into once per query
// (RelationRef::selection, src/expr/expr.h) — and does no predicate work
// of its own: a predicated scan must be given that selection (the
// constructor checks), and a scan whose predicate selects every row walks
// plain row ranges. This selection is the columnar "leaf" work the paper's
// Figure 9 counts. Batches are produced one stride of candidate rows at a
// time: the stride's selected rows are decoded from the selection words
// (or taken from the row range) into a stride-local row array, the
// stride's filter keys are hashed into a scratch array, each pushed-down
// filter winnows a per-stride selection vector (batched, prefetched probes
// — see batch.h), and the survivors are gathered into the output batch in
// one pass at the end.
//
// == Morsel parallelism ==
//
// The selection is immutable, and so are the bitvector filters (built
// before the probe side opens), so the stride pipeline can run from many
// threads at once: morsels are word-aligned ranges of table rows claimed
// off an atomic cursor, and each worker keeps its own scratch buffers and
// stats accumulators in a WorkerState. The single-threaded Next() path is
// the degenerate case — one WorkerState, one morsel spanning the whole
// table — so both paths execute the same code. The scan is the *source* of
// every parallel pipeline (pipeline.h): ExchangeOperator workers drain it
// free-running through ParallelNext, and hash-join build drains claim one
// morsel at a time (ClaimMorsel/MorselNext) so their outputs reassemble in
// canonical order. Whoever owns the workers merges every WorkerState's
// counters back into the shared OperatorStats/FilterStats exactly once,
// after the workers are joined.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "src/exec/operator.h"
#include "src/storage/table.h"

namespace bqo {

class ScanOperator final : public PhysicalOperator {
 public:
  /// \param selection the rows `predicate` selects over `table`, already
  ///                  evaluated (RelationRef::selection). Null only when
  ///                  `predicate` selects every row; a predicated scan
  ///                  without one is a fatal check failure.
  /// \param schema    the output columns; each ColumnRef::col is a
  ///                  base-table column index.
  /// \param filters   filters applied at this leaf; key_positions are
  ///                  base-table column indices of the probe columns.
  ScanOperator(const Table* table, ExprPtr predicate,
               std::shared_ptr<const SelectionBits> selection,
               OutputSchema schema, std::vector<ResolvedFilter> filters,
               FilterRuntime* runtime, std::string label);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;

  /// Per-worker execution state: the stride scratch plus private stats
  /// accumulators. Workers never touch the shared FilterRuntime counters;
  /// MergeWorkerStats folds these in once the worker is done, so the merged
  /// probed/passed totals are exactly the single-threaded counts. The
  /// scratch is sized to the active filters and never zero-filled (batch.h):
  /// a scan without filters has empty `hashes` and `keys`.
  struct WorkerState {
    ScratchVector<uint32_t> rows;        ///< the stride's candidate rows
    ScratchVector<uint16_t> sel;         ///< live positions within the stride
    ScratchVector<uint64_t> hashes;      ///< hash of position i's key
    /// Gathered key columns: one kBatchSize stride per key of the widest
    /// active filter.
    ScratchVector<int64_t> keys;
    std::vector<FilterStats> filter_stats;  ///< aligned with active_filters_
    int64_t rows_prefilter = 0;
    int64_t rows_out = 0;
    int64_t busy_ns = 0;                 ///< pipeline time (exchange workers)
    // Current claimed morsel: table rows [morsel_pos, morsel_end), of
    // which the rows before morsel_pos are consumed.
    size_t morsel_pos = 0;
    size_t morsel_end = 0;
  };

  /// \brief Size `ws`'s scratch for this scan. Call after Open().
  void InitWorkerState(WorkerState* ws) const;

  /// \brief Fill `out` by claiming strides off the shared morsel cursor;
  /// false when the table is exhausted and `out` came up empty. Safe to
  /// call from multiple threads after Open(), each with its own WorkerState;
  /// all counters accumulate into `ws`. Batches may span morsels (the
  /// free-running path used above probe pipelines, where order is
  /// irrelevant).
  bool ParallelNext(Batch* out, WorkerState* ws);

  /// \brief Claim the next unprocessed morsel off the shared cursor into
  /// `ws`. `*begin` is its first table row — a canonical position: chunks
  /// sorted by it reassemble the single-threaded row order. False when the
  /// table is exhausted. Thread-safe.
  bool ClaimMorsel(WorkerState* ws, size_t* begin);

  /// \brief Like ParallelNext but confined to the morsel last claimed via
  /// ClaimMorsel: fills `out` from that morsel's remaining rows only and
  /// returns false once it is drained. Build-side drains use this so each
  /// output chunk maps to exactly one morsel (pipeline.h reassembles them
  /// in canonical order).
  bool MorselNext(Batch* out, WorkerState* ws);

  /// \brief Fold a worker's accumulators into the shared stats. Call with
  /// the worker quiesced (joined), before Close(); not thread-safe.
  void MergeWorkerStats(WorkerState* ws);

  /// \brief Table rows claimed per atomic cursor bump, rounded up to whole
  /// selection words so every morsel starts on a word (exchange.h sets
  /// this between Open() and the first ParallelNext).
  void set_morsel_rows(size_t rows) {
    morsel_rows_ = std::max<size_t>(64, (rows + 63) / 64 * 64);
  }

  /// \brief The query's cancellation context (FilterRuntime::context), or
  /// null. The scan is the source of every pipeline, so drain owners
  /// (exchange, build drains) reach the context through it. Every stride
  /// loop in this operator polls it: a cancelled or deadline-expired query
  /// stops claiming morsels and reports exhaustion, unwinding the plan
  /// above cooperatively (query_context.h).
  QueryContext* query_context() const {
    return runtime_ != nullptr ? runtime_->context : nullptr;
  }

  // Build-signature derivation (src/optimizer/build_signature.h) inspects
  // leaf scans to decide whether a hash join's build side is shareable
  // across queries and, when it is, what identifies it.
  const Table* table() const { return table_; }
  const ExprPtr& predicate() const { return predicate_; }
  /// \brief True when bitvector filters are pushed down to this scan. A
  /// filtered scan's output depends on *other* relations' contents, so a
  /// build drained from it must never be shared across queries.
  bool has_runtime_filters() const { return !filters_.empty(); }

 private:
  /// A filter fully resolved for the per-stride loop: loop-invariant
  /// pointers hoisted so the check costs only the hash + the probe (the Cf
  /// that Figure 7 profiles).
  struct ActiveFilter {
    const BitvectorFilter* filter = nullptr;
    const int64_t* key_data[8] = {nullptr};
    size_t num_keys = 0;
  };

  /// Run one stride of `n` candidate rows through the filter pipeline and
  /// gather the survivors into `out`. `fstats` is aligned with
  /// active_filters_; scratch arrays belong to the calling worker. const —
  /// shared scan state is read-only here, so concurrent callers are safe.
  void ProcessStride(const uint32_t* rows, int n, uint16_t* sel,
                     uint64_t* hashes, int64_t* keys, FilterStats* fstats,
                     Batch* out) const;

  /// Run one stride off `ws`'s claimed morsel through the filter pipeline
  /// into `out`: the morsel's next selected rows, at most the batch's
  /// remaining capacity of them.
  void ConsumeStride(Batch* out, WorkerState* ws) const;

  const Table* table_;
  ExprPtr predicate_;
  std::vector<ResolvedFilter> filters_;
  FilterRuntime* runtime_;
  /// Output column -> base table column (resolved once; hot path).
  std::vector<const Column*> gather_cols_;
  /// Resolved at Open() (filter slots are filled by then; hash joins above
  /// this scan complete their builds before opening their probe side).
  std::vector<ActiveFilter> active_filters_;
  /// FilterRuntime stats slots aligned with active_filters_ (merge targets).
  std::vector<FilterStats*> filter_stat_slots_;

  /// Null when every row is selected.
  std::shared_ptr<const SelectionBits> selection_;
  size_t num_rows_ = 0;
  /// Next unclaimed table row; workers advance it by morsel_rows_.
  std::atomic<size_t> shared_cursor_{0};
  size_t morsel_rows_ = 0;

  /// State for the single-threaded Next() path (merged at Close()).
  WorkerState local_;
};

}  // namespace bqo
