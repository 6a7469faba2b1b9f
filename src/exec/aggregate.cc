#include "src/exec/aggregate.h"

#include <utility>

#include "src/common/bit_util.h"
#include "src/common/hash.h"
#include "src/exec/pipeline.h"

namespace bqo {

namespace {

/// One batch's fold, with the kind and grouping branches outside the row
/// loops and each loop summing into a local. kWeighted: the batch carries
/// row multiplicities, and row r stands for mult[r] identical tuples.
template <bool kWeighted>
void FoldRows(const AggFold& fold, const Batch& batch,
              PartialAggState* state) {
  const int n = batch.num_rows;
  const int64_t* mult = batch.multiplicity();
  const auto weight = [mult](int r) -> uint64_t {
    if constexpr (kWeighted) {
      return static_cast<uint64_t>(mult[r]);
    } else {
      return 1;
    }
  };
  uint64_t rows = static_cast<uint64_t>(n);
  if constexpr (kWeighted) {
    rows = 0;
    for (int r = 0; r < n; ++r) rows += weight(r);
  }
  uint64_t total = rows;  // COUNT(*): ungrouped and unweighted, one add
  if (fold.kind == AggKind::kSum) {
    const int64_t* sums = batch.col(fold.sum_pos);
    total = 0;
    for (int r = 0; r < n; ++r) {
      total += static_cast<uint64_t>(sums[r]) * weight(r);
    }
    if (fold.has_group_by) {
      const int64_t* keys = batch.col(fold.group_pos);
      for (int r = 0; r < n; ++r) {
        AddWrapping(&state->groups[keys[r]],
                    static_cast<uint64_t>(sums[r]) * weight(r));
      }
    }
  } else if (fold.has_group_by) {
    const int64_t* keys = batch.col(fold.group_pos);
    for (int r = 0; r < n; ++r) AddWrapping(&state->groups[keys[r]], weight(r));
  }
  AddWrapping(&state->total, total);
  AddWrapping(&state->rows_folded, rows);
}

}  // namespace

void PartialAggState::MergeFrom(PartialAggState&& other) {
  if (groups.empty()) {
    groups = std::move(other.groups);
  } else {
    for (const auto& [g, v] : other.groups) {
      AddWrapping(&groups[g], static_cast<uint64_t>(v));
    }
  }
  AddWrapping(&total, static_cast<uint64_t>(other.total));
  AddWrapping(&rows_folded, static_cast<uint64_t>(other.rows_folded));
}

AggFold AggFold::Resolve(const AggSpec& spec,
                         const OutputSchema& child_schema) {
  AggFold fold;
  fold.kind = spec.kind;
  fold.has_group_by = spec.has_group_by;
  if (spec.kind == AggKind::kSum) {
    fold.sum_pos = child_schema.PositionOf(spec.sum_column.ref());
    BQO_CHECK_MSG(fold.sum_pos >= 0, "SUM column missing from child schema");
  }
  if (spec.has_group_by) {
    fold.group_pos = child_schema.PositionOf(spec.group_column.ref());
    BQO_CHECK_MSG(fold.group_pos >= 0, "GROUP BY column missing from child");
  }
  return fold;
}

void AggFold::Fold(const Batch& batch, PartialAggState* state) const {
  if (batch.multiplicity() == nullptr) {
    FoldRows<false>(*this, batch, state);
  } else {
    FoldRows<true>(*this, batch, state);
  }
}

AggregateOperator::AggregateOperator(std::unique_ptr<PhysicalOperator> child,
                                     AggSpec spec, ExecConfig exec)
    : child_(std::move(child)), spec_(spec), exec_(exec) {
  stats_.type = OperatorType::kAggregate;
  stats_.label = "aggregate";
  fold_ = AggFold::Resolve(spec_, child_->output_schema());
  // Output schema: (group key,) aggregate value — synthetic bound columns.
  std::vector<ColumnRef> out_cols;
  if (spec_.has_group_by) out_cols.push_back(spec_.group_column.ref());
  schema_ = OutputSchema(std::move(out_cols));
}

void AggregateOperator::Open() {
  TimerGuard timer(&stats_.ns_inclusive);
  child_->Open();
  state_ = PartialAggState{};
  checksum_ = 0;

  // Fold the top pipeline on every worker, then merge the partials.
  // MergeFrom is exact for any partition and merge order (see the header),
  // so the merged state equals the one-worker fold bit-for-bit.
  for (PartialAggState& partial : FoldPipeline(
           BuildProbePipeline(child_.get()), exec_, fold_, &stats_)) {
    // Per-worker counters, merged exactly once (metrics.h).
    stats_.agg_partial_groups += static_cast<int64_t>(partial.groups.size());
    state_.MergeFrom(std::move(partial));
  }
  stats_.agg_rows_folded = state_.rows_folded;
  stats_.rows_prefilter = state_.rows_folded;
  stats_.rows_out =
      spec_.has_group_by ? static_cast<int64_t>(state_.groups.size()) : 1;

  // Order-independent checksum: sum of hashed (group, value) pairs —
  // independent of map iteration order, hence of the merge history.
  if (spec_.has_group_by) {
    for (const auto& [g, v] : state_.groups) {
      checksum_ += Mix64(HashCombine(HashValue(static_cast<uint64_t>(g)),
                                     static_cast<uint64_t>(v)));
    }
  } else {
    checksum_ = HashValue(static_cast<uint64_t>(state_.total));
  }
}

void AggregateOperator::Close() { child_->Close(); }

}  // namespace bqo
