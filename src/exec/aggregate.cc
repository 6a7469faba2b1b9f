#include "src/exec/aggregate.h"

#include <algorithm>
#include <utility>

#include "src/common/hash.h"
#include "src/exec/exchange.h"

namespace bqo {

void PartialAggState::MergeFrom(PartialAggState&& other) {
  if (groups.empty()) {
    groups = std::move(other.groups);
  } else {
    for (const auto& [g, v] : other.groups) groups[g] += v;
  }
  total += other.total;
  rows_folded += other.rows_folded;
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
  // The kind and grouping branches sit outside the row loops, and each
  // loop sums into a local: ungrouped COUNT(*) is one add per batch.
  const int n = batch.num_rows;
  int64_t total = n;  // COUNT(*)
  if (kind == AggKind::kSum) {
    const int64_t* sums = batch.col(sum_pos);
    total = 0;
    for (int r = 0; r < n; ++r) total += sums[r];
    if (has_group_by) {
      const int64_t* keys = batch.col(group_pos);
      for (int r = 0; r < n; ++r) state->groups[keys[r]] += sums[r];
    }
  } else if (has_group_by) {
    const int64_t* keys = batch.col(group_pos);
    for (int r = 0; r < n; ++r) ++state->groups[keys[r]];
  }
  state->total += total;
  state->rows_folded += n;
}

AggregateOperator::AggregateOperator(
    std::unique_ptr<PhysicalOperator> child, AggSpec spec)
    : child_(std::move(child)), spec_(spec) {
  stats_.type = OperatorType::kAggregate;
  stats_.label = "aggregate";
  fold_ = AggFold::Resolve(spec_, child_->output_schema());
  // Output schema: (group key,) aggregate value — synthetic bound columns.
  std::vector<ColumnRef> out_cols;
  if (spec_.has_group_by) out_cols.push_back(spec_.group_column.ref());
  schema_ = OutputSchema(std::move(out_cols));
}

void AggregateOperator::Open() {
  TimerGuard timer(&stats_);
  child_->Open();
  state_ = PartialAggState{};
  checksum_ = 0;
  emitted_ = false;

  if (auto* exchange = dynamic_cast<ExchangeOperator*>(child_.get())) {
    // Pipeline-parallel sink: the exchange workers already folded their
    // probe-chain output thread-locally; merge the partials. MergeFrom is
    // exact for any partition and merge order (aggregate.h), so the merged
    // state equals the single-threaded fold bit-for-bit.
    for (PartialAggState& partial : exchange->DrainPartials()) {
      state_.MergeFrom(std::move(partial));
    }
  } else {
    // threads == 1: the single-threaded fold.
    Batch batch;
    while (child_->Next(&batch)) fold_.Fold(batch, &state_);
  }
  stats_.agg_rows_folded = state_.rows_folded;
  stats_.rows_prefilter = state_.rows_folded;

  // Order-independent checksum: sum of hashed (group, value) pairs —
  // independent of map iteration order, hence of the merge history.
  // Group keys are also snapshotted so Next() can emit them in
  // batch-capacity chunks (Batch storage is fixed at kBatchSize rows).
  group_keys_.clear();
  emit_cursor_ = 0;
  if (spec_.has_group_by) {
    group_keys_.reserve(state_.groups.size());
    for (const auto& [g, v] : state_.groups) {
      group_keys_.push_back(g);
      checksum_ += Mix64(HashCombine(HashValue(static_cast<uint64_t>(g)),
                                     static_cast<uint64_t>(v)));
    }
  } else {
    checksum_ = HashValue(static_cast<uint64_t>(state_.total));
  }
}

bool AggregateOperator::Next(Batch* out) {
  TimerGuard timer(&stats_);
  out->Reset(schema_.size());
  if (spec_.has_group_by) {
    if (emit_cursor_ >= group_keys_.size()) return false;
    const int n = static_cast<int>(std::min<size_t>(
        kBatchSize, group_keys_.size() - emit_cursor_));
    int64_t* dst = out->col(0);
    for (int i = 0; i < n; ++i) {
      dst[i] = group_keys_[emit_cursor_ + static_cast<size_t>(i)];
    }
    emit_cursor_ += static_cast<size_t>(n);
    out->num_rows = n;
  } else {
    if (emitted_) return false;
    emitted_ = true;
    out->num_rows = 1;
  }
  stats_.rows_out += out->num_rows;
  return out->num_rows > 0;
}

void AggregateOperator::Close() { child_->Close(); }

}  // namespace bqo
