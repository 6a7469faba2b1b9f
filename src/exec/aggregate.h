// Aggregation: COUNT(*) / SUM(col), optionally grouped by one column —
// executed as fold + merge so the final aggregate runs on every pipeline
// worker.
//
// == The partial-aggregation model ==
//
// The aggregate is decomposed into three pieces:
//
//  * AggFold — an AggSpec resolved against a child schema (column positions
//    for the SUM input and the group key). Folding is stateless w.r.t. the
//    operator: any thread may fold batches through the same AggFold. A
//    batch row with multiplicity w (batch.h) folds as w identical rows:
//    COUNT adds w, SUM adds v·w, per group alike. Values add and multiply
//    in uint64_t, modulo 2^64, so v·w equals w repeated additions bit for
//    bit and overflow wraps instead of being undefined.
//  * PartialAggState — the mutable accumulator one thread folds into: a
//    group -> value hash map for GROUP BY, a scalar total otherwise, plus
//    the per-worker input-row counter that metrics.h's merge-once
//    discipline requires. Partials merge by key-wise addition
//    (MergeFrom), which is exact because both COUNT(*) and SUM are
//    commutative + associative folds: any partition of the input rows
//    into partials, merged in any order, yields the same group map and
//    total as the single-threaded left-to-right fold.
//  * AggregateOperator — the plan's final breaker. Its Open() opens the
//    child (running every hash-join build below) and drives the plan's
//    top pipeline through the pipeline driver (FoldPipeline, pipeline.h):
//    each worker folds its probe-chain output into its own partial, and
//    Open() merges the per-worker partials — no raw batches cross threads
//    above the top probe chain. With one worker there is one partial.
//
// == Checksum merge-order independence ==
//
// ResultChecksum() is the *sum* over groups of Mix64(hash(group, value)),
// computed on the fully merged state (and HashValue(total) when ungrouped).
// Summation commutes, so the checksum is independent of group enumeration
// order — and therefore of the hash-map iteration order, which differs
// between a merged map and a single-threaded one even when their contents
// are identical. Together with the exactness of MergeFrom this gives the
// engine-wide parity invariant, pinned by tests/test_pipeline_parallel.cc:
// ResultChecksum(), NumGroups(), and TotalValue() at any thread count equal
// the threads == 1 values exactly. The checksum's order independence is
// also what lets the plan-equivalence tests compare different join orders.
#pragma once

#include <memory>
#include <unordered_map>

#include "src/exec/exec_config.h"
#include "src/exec/operator.h"

namespace bqo {

enum class AggKind : uint8_t { kCountStar, kSum };

/// The aggregate of a query. The operators match its columns on their
/// resolved table index (BoundColumn::index): CompilePlan resolves a
/// query's spec, and code that builds operators by hand sets it.
struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  BoundColumn sum_column;    ///< kSum only
  bool has_group_by = false;
  BoundColumn group_column;  ///< if has_group_by
};

/// \brief One thread's aggregate accumulator. Fold rows in via
/// AggFold::Fold; combine partials with MergeFrom.
struct PartialAggState {
  std::unordered_map<int64_t, int64_t> groups;  ///< GROUP BY only
  int64_t total = 0;      ///< SUM over all rows; row count for COUNT(*)
  int64_t rows_folded = 0;  ///< input tuples this partial consumed

  /// \brief Key-wise addition of `other` into this partial. Exact: COUNT
  /// and SUM are commutative + associative, so merged partials reproduce
  /// the single-threaded fold for any input partition and merge order.
  void MergeFrom(PartialAggState&& other);
};

/// \brief An AggSpec resolved against a concrete child schema: the fold
/// kernel every pipeline worker runs. Read-only after Resolve, so
/// concurrent folds into distinct PartialAggStates need no
/// synchronization.
struct AggFold {
  AggKind kind = AggKind::kCountStar;
  bool has_group_by = false;
  int sum_pos = -1;    ///< kSum: position of the SUM column in the child
  int group_pos = -1;  ///< has_group_by: position of the group key

  /// \brief Resolve `spec`'s columns against `child_schema` (CHECKs that
  /// they are present).
  static AggFold Resolve(const AggSpec& spec, const OutputSchema& child_schema);

  /// \brief Fold one batch into `state`, each row weighted by its
  /// multiplicity.
  void Fold(const Batch& batch, PartialAggState* state) const;
};

class AggregateOperator final : public PhysicalOperator {
 public:
  /// `child` must decompose into a probe pipeline (BuildProbePipeline
  /// CHECKs that): a bare scan, or a scan -> probe -> ... -> probe chain.
  /// `exec` sets the top pipeline's workers and morsel size.
  AggregateOperator(std::unique_ptr<PhysicalOperator> child, AggSpec spec,
                    ExecConfig exec);

  /// Open() consumes the whole input: it opens the child, folds the top
  /// pipeline on exec.threads workers, and merges their partials. The
  /// result is then read through the accessors below; rows_out is the
  /// result's row count (the group count, or 1 when ungrouped).
  void Open() override;
  void Close() override;

  std::vector<PhysicalOperator*> children() override {
    return {child_.get()};
  }

  /// \brief Order-independent hash of the full result set (see the header
  /// comment on merge-order independence).
  uint64_t ResultChecksum() const { return checksum_; }
  int64_t NumGroups() const {
    return static_cast<int64_t>(state_.groups.size());
  }
  /// \brief Total aggregate value (sum over groups); COUNT(*) of the join
  /// when ungrouped.
  int64_t TotalValue() const { return state_.total; }

 private:
  std::unique_ptr<PhysicalOperator> child_;
  AggSpec spec_;
  ExecConfig exec_;
  AggFold fold_;

  PartialAggState state_;  ///< fully merged at the end of Open()
  uint64_t checksum_ = 0;
};

}  // namespace bqo
