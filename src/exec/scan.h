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
// == Morsels ==
//
// The selection is immutable, and so are the bitvector filters (built
// before the probe side opens), so the stride loop can run from many
// workers at once: morsels are word-aligned ranges of table rows claimed
// off an atomic cursor (ClaimMorsel), and each worker keeps its own
// scratch buffers and stats accumulators in a WorkerState and drains its
// morsel with MorselNext. The scan is the source of every pipeline
// (pipeline.h); with one worker the driver sets the morsel to the whole
// table. The driver merges every WorkerState's counters back into the
// shared OperatorStats/FilterStats exactly once, after the workers are
// joined.
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
    // Current claimed morsel: table rows [morsel_pos, morsel_end), of
    // which the rows before morsel_pos are consumed.
    size_t morsel_pos = 0;
    size_t morsel_end = 0;
  };

  /// \brief Size `ws`'s scratch for this scan. Call after Open().
  void InitWorkerState(WorkerState* ws) const;

  /// \brief Claim the next unprocessed morsel off the shared cursor into
  /// `ws`. `*begin` is its first table row — a canonical position: chunks
  /// sorted by it reassemble the single-threaded row order. False when the
  /// table is exhausted. Thread-safe.
  bool ClaimMorsel(WorkerState* ws, size_t* begin);

  /// \brief Fill `out` from the morsel last claimed via ClaimMorsel,
  /// consuming strides until the batch fills or the morsel is drained;
  /// false once the morsel is drained and `out` came up empty. Each output
  /// batch therefore maps to exactly one morsel (pipeline.h reassembles
  /// build rows in canonical order by it). Safe to call from multiple
  /// threads after Open(), each with its own WorkerState; all counters
  /// accumulate into `ws`.
  bool MorselNext(Batch* out, WorkerState* ws);

  /// \brief Fold a worker's accumulators into the shared stats, once per
  /// worker. Call with the worker quiesced (joined), before Close(); not
  /// thread-safe.
  void MergeWorkerStats(const WorkerState& ws);

  /// \brief Table rows claimed per atomic cursor bump, rounded up to whole
  /// selection words so every morsel starts on a word (the pipeline driver
  /// sets this between Open() and the first ClaimMorsel).
  void set_morsel_rows(size_t rows) {
    morsel_rows_ = std::max<size_t>(64, (rows + 63) / 64 * 64);
  }

  /// \brief The query's cancellation context (FilterRuntime::context), or
  /// null. The scan is the source of every pipeline, so the pipeline
  /// driver reaches the context through it. Every stride
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
};

}  // namespace bqo
