// Execution batches: fixed-capacity column-oriented tuple blocks.
//
// The engine is int64-only at runtime: join keys and integer attributes are
// raw values, string columns travel as dictionary codes (string predicates
// are resolved to code sets at scan time), and measures are int64. This
// keeps the hot loops branch-light and makes composite-key hashing uniform.
//
// == Selection-vector execution model ==
//
// Operators process strides of up to kBatchSize tuples at a time. Inside an
// operator, a stride is winnowed by a *selection vector*: a uint16_t array
// of still-alive positions within the stride. Scans hash a whole stride of
// filter keys into a position-aligned uint64_t scratch array (HashColumn /
// HashCompositeBatch), then let each pushed-down bitvector filter compact
// the selection (BitvectorFilter::MayContainBatch, which prefetches its
// blocks before testing bits). Only after the last filter are the surviving
// rows gathered into the output Batch — eliminated rows are never copied.
// Hash joins likewise hash the whole probe stride up front, prefetch the
// bucket heads, and walk chains from the precomputed hashes.
//
// == Scratch-buffer ownership ==
//
// All per-stride scratch (candidate rows, selection vectors, hash arrays,
// key gather buffers) lives in the pipeline worker state that uses it and
// is reused for every batch. It is sized to what the operator's filters
// need — a scan without filters allocates no hash or key scratch, and key
// scratch holds only as many columns as the widest filter has keys — and
// it is never zero-filled: ScratchVector default-initializes, so a page is
// touched only when a row is written to it. A scan's stride scratch is
// allocated when a pipeline worker starts. A hash join allocates its probe
// scratch as one block when the first probe row arrives
// (HashJoinOperator::ProbeState), so a join that no probe row reaches
// allocates none. A Batch owns one flat
// int64 ScratchVector of num_cols * kBatchSize values that is allocated at
// its first write (the non-const col()) and reused across batches:
// Reset() only re-points the column layout, it never clears or allocates,
// and storage grows only when a write follows a Reset() to more columns
// than any earlier write had. Values at positions >= num_rows (and scratch
// positions a stride has not written) are stale garbage by design;
// consumers must only read rows [0, num_rows).
//
// == Row multiplicities ==
//
// A batch row may stand for several identical logical tuples. On the
// aggregate's top pipeline a hash join whose output takes no build-side
// column emits each matched probe row once, with its number of matches as
// the row's multiplicity (HashJoinOperator, hash_join.h), instead of
// repeating the row per match. The multiplicity column exists only when
// some row's multiplicity is not 1: scans, build pipelines and 1:1 joins
// over such batches emit batches without one, in which every row counts
// once.
// Consumers weight each row by it: joins above carry it through, and the
// aggregate folds COUNT as the sum of multiplicities and SUM as the sum of
// value times multiplicity (aggregate.h). Every row counter (rows_out,
// filter probed/passed, agg_rows_folded) counts logical tuples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/plan/plan.h"

namespace bqo {

inline constexpr int kBatchSize = 1024;

/// \brief std::allocator whose value-less construct() default-initializes:
/// resize() of a trivial element type then leaves new elements unwritten
/// instead of zero-filling them. Copyable, so containers using it are too.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Operator scratch and batch storage: a vector that resize() does not
/// zero-fill (see "Scratch-buffer ownership" above).
template <typename T>
using ScratchVector = std::vector<T, DefaultInitAllocator<T>>;

/// \brief A block of up to kBatchSize tuples in columnar layout, backed by
/// one flat allocation (column c occupies [c*kBatchSize, (c+1)*kBatchSize)).
///
/// Producers write column values at index num_rows via col() and then bump
/// num_rows once the whole row is written; they must check Full() (or emit
/// at most kBatchSize rows per stride) before writing.
struct Batch {
  int num_rows = 0;

  /// \brief Prepare for refill with `num_columns` columns and no
  /// multiplicity column. O(1): storage is allocated (or grown) by the
  /// first write after it, never here, and old values are never cleared.
  void Reset(int num_columns) {
    num_cols_ = num_columns;
    num_rows = 0;
    has_multiplicity_ = false;
  }

  int num_cols() const { return num_cols_; }

  /// \brief Column `c` for writing (or reading): the first call after a
  /// Reset() to more columns than the storage holds allocates it.
  int64_t* col(int c) {
    BQO_DCHECK_LT(c, num_cols_);
    const size_t needed = static_cast<size_t>(num_cols_) * kBatchSize;
    if (data_.size() < needed) data_.resize(needed);
    return data_.data() + static_cast<size_t>(c) * kBatchSize;
  }
  /// \brief Column `c` for reading; null while the batch has never been
  /// written with that many columns (it then has no rows to read).
  const int64_t* col(int c) const {
    BQO_DCHECK_LT(c, num_cols_);
    const size_t begin = static_cast<size_t>(c) * kBatchSize;
    return begin < data_.size() ? data_.data() + begin : nullptr;
  }

  bool Full() const { return num_rows >= kBatchSize; }

  /// \brief Row multiplicities (see "Row multiplicities" above), or null
  /// when the batch has no multiplicity column and every row counts once.
  const int64_t* multiplicity() const {
    return has_multiplicity_ ? multiplicity_.data() : nullptr;
  }
  /// \brief The multiplicity column for writing. The first call after a
  /// Reset() adds the column, giving the rows [0, num_rows) already
  /// written multiplicity 1.
  int64_t* mutable_multiplicity() {
    if (!has_multiplicity_) {
      if (multiplicity_.empty()) multiplicity_.resize(kBatchSize);
      std::fill_n(multiplicity_.data(), num_rows, int64_t{1});
      has_multiplicity_ = true;
    }
    return multiplicity_.data();
  }

 private:
  ScratchVector<int64_t> data_;  ///< num_cols_ * kBatchSize once written
  ScratchVector<int64_t> multiplicity_;  ///< kBatchSize once first used
  int num_cols_ = 0;
  bool has_multiplicity_ = false;
};

/// \brief Append `batch`'s rows to `rows` as row-major tuples of
/// num_cols() values: one resize per batch, then one strided pass per
/// column. Row multiplicities are not expanded: callers pass batches
/// without them.
inline void AppendRowMajor(const Batch& batch, std::vector<int64_t>* rows) {
  const size_t width = static_cast<size_t>(batch.num_cols());
  const size_t n = static_cast<size_t>(batch.num_rows);
  const size_t base = rows->size();
  rows->resize(base + n * width);
  int64_t* dst = rows->data() + base;
  for (size_t c = 0; c < width; ++c) {
    const int64_t* src = batch.col(static_cast<int>(c));
    for (size_t r = 0; r < n; ++r) dst[r * width + c] = src[r];
  }
}

/// \brief An ordered, duplicate-free output schema of resolved columns,
/// sorted by (relation, table column index).
class OutputSchema {
 public:
  OutputSchema() = default;
  explicit OutputSchema(std::vector<ColumnRef> cols) : cols_(std::move(cols)) {
    std::sort(cols_.begin(), cols_.end());
    cols_.erase(std::unique(cols_.begin(), cols_.end()), cols_.end());
  }

  int size() const { return static_cast<int>(cols_.size()); }
  const ColumnRef& col(int i) const { return cols_[static_cast<size_t>(i)]; }
  const std::vector<ColumnRef>& cols() const { return cols_; }

  /// \brief Position of `c` in this schema, or -1.
  int PositionOf(const ColumnRef& c) const {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i] == c) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  std::vector<ColumnRef> cols_;
};

}  // namespace bqo
