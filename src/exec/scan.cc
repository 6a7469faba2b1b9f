#include "src/exec/scan.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/filter/bloom_filter.h"
#include "src/filter/filter_kernels.h"

namespace bqo {

// The devirtualized FilterMayContainBatch the stride loop probes through
// lives in bloom_filter.h, shared with the hash join's residual winnow.

ScanOperator::ScanOperator(const Table* table, ExprPtr predicate,
                           std::shared_ptr<const SelectionBits> selection,
                           OutputSchema schema,
                           std::vector<ResolvedFilter> filters,
                           FilterRuntime* runtime, std::string label)
    : table_(table),
      predicate_(std::move(predicate)),
      filters_(std::move(filters)),
      runtime_(runtime),
      selection_(std::move(selection)),
      num_rows_(static_cast<size_t>(table->num_rows())) {
  // The scan only reads a selection statistics attached
  // (AttachRelationStatistics); it never evaluates its predicate.
  BQO_CHECK_MSG(selection_ != nullptr || SelectsAllRows(predicate_),
                "predicated scan compiled without its relation's selection "
                "(attach statistics before compiling)");
  BQO_CHECK_MSG(selection_ == nullptr ||
                    selection_->num_rows() == table_->num_rows(),
                "scan selection evaluated over a different table state");
  schema_ = std::move(schema);
  stats_.type = OperatorType::kScan;
  stats_.label = std::move(label);
  gather_cols_.reserve(static_cast<size_t>(schema_.size()));
  for (int i = 0; i < schema_.size(); ++i) {
    const int idx = schema_.col(i).col;
    BQO_CHECK_MSG(idx >= 0 && idx < table_->num_columns(),
                  "scan output column missing from base table");
    BQO_CHECK_MSG(table_->column(idx).type() != DataType::kDouble,
                  "execution batches are int64-only (see batch.h)");
    gather_cols_.push_back(&table_->column(idx));
  }
}

void ScanOperator::Open() {
  TimerGuard timer(&stats_.ns_inclusive);
  shared_cursor_.store(0, std::memory_order_relaxed);

  // Resolve the filters pushed down to this scan. Every hash join above
  // has finished its build (and created its filter) before our Open runs.
  active_filters_.clear();
  filter_stat_slots_.clear();
  for (const ResolvedFilter& rf : filters_) {
    const BitvectorFilter* filter =
        runtime_->slots[static_cast<size_t>(rf.filter_id)].get();
    if (filter == nullptr) continue;  // pruned or disabled
    ActiveFilter af;
    af.filter = filter;
    af.num_keys = rf.key_positions.size();
    BQO_CHECK_LE(af.num_keys, size_t{8});
    for (size_t k = 0; k < af.num_keys; ++k) {
      af.key_data[k] = table_->column(rf.key_positions[k]).int_data();
    }
    active_filters_.push_back(af);
    filter_stat_slots_.push_back(
        &runtime_->stats[static_cast<size_t>(rf.filter_id)]);
  }
}

void ScanOperator::InitWorkerState(WorkerState* ws) const {
  size_t max_keys = 0;
  for (const ActiveFilter& af : active_filters_) {
    max_keys = std::max(max_keys, af.num_keys);
  }
  ws->rows.resize(kBatchSize);
  ws->sel.resize(kBatchSize);
  ws->hashes.resize(active_filters_.empty() ? 0 : kBatchSize);
  ws->keys.resize(max_keys * kBatchSize);
  ws->filter_stats.assign(active_filters_.size(), FilterStats{});
  ws->morsel_pos = 0;
  ws->morsel_end = 0;
}

void ScanOperator::ProcessStride(const uint32_t* rows, int n, uint16_t* sel,
                                 uint64_t* hashes, int64_t* keys,
                                 FilterStats* fstats, Batch* out) const {
  const size_t num_filters = active_filters_.size();
  int m = n;
  for (int i = 0; i < n; ++i) sel[i] = static_cast<uint16_t>(i);

  for (size_t f = 0; f < num_filters && m > 0; ++f) {
    const ActiveFilter& af = active_filters_[f];
    // Hash the keys of the still-selected positions, position-aligned
    // with the stride so the selection indexes `hashes` directly.
    if (af.num_keys == 1) {
      const int64_t* key_col = af.key_data[0];
      if (m == n) {
        // Dense fast path (first filter): gather + batched hashing.
        for (int i = 0; i < n; ++i) {
          keys[i] = key_col[rows[i]];
        }
        HashColumnKernel(keys, n, hashes);
      } else {
        for (int j = 0; j < m; ++j) {
          const uint16_t pos = sel[j];
          hashes[pos] = HashComposite(&key_col[rows[pos]], 1);
        }
      }
    } else if (m == n) {
      const int64_t* gathered[8];
      for (size_t k = 0; k < af.num_keys; ++k) {
        int64_t* dst = keys + k * kBatchSize;
        const int64_t* src = af.key_data[k];
        for (int i = 0; i < n; ++i) dst[i] = src[rows[i]];
        gathered[k] = dst;
      }
      HashCompositeBatchKernel(gathered, af.num_keys, n, hashes);
    } else {
      for (int j = 0; j < m; ++j) {
        const uint16_t pos = sel[j];
        int64_t key[8];
        for (size_t k = 0; k < af.num_keys; ++k) {
          key[k] = af.key_data[k][rows[pos]];
        }
        hashes[pos] = HashComposite(key, af.num_keys);
      }
    }

    fstats[f].probed += m;
    m = FilterMayContainBatch(af.filter, hashes, sel, m);
    fstats[f].passed += m;
  }
  if (m == 0) return;

  // Gather the survivors into the output batch in one pass per column,
  // appending after any survivors from earlier strides.
  for (size_t c = 0; c < gather_cols_.size(); ++c) {
    const int64_t* src = gather_cols_[c]->int_data();
    int64_t* dst = out->col(static_cast<int>(c)) + out->num_rows;
    for (int j = 0; j < m; ++j) {
      dst[j] = src[rows[sel[j]]];
    }
  }
  out->num_rows += m;
}

void ScanOperator::ConsumeStride(Batch* out, WorkerState* ws) const {
  const int cap = kBatchSize - out->num_rows;
  uint32_t* rows = ws->rows.data();
  size_t pos = ws->morsel_pos;
  int n = 0;
  if (selection_ == nullptr) {
    n = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(cap), ws->morsel_end - pos));
    for (int i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(pos + i);
    pos += static_cast<size_t>(n);
  } else {
    // Decode set bits word by word. A morsel ends on a word boundary or at
    // the table's end, past which the bits are zero, so no end mask is
    // needed; a word cut short by the stride cap resumes mid-word.
    const uint64_t* words = selection_->words();
    while (pos < ws->morsel_end && n < cap) {
      const size_t w = pos >> 6;
      uint64_t bits = words[w] & (~uint64_t{0} << (pos & 63));
      for (; bits != 0 && n < cap; bits &= bits - 1) {
        rows[n++] = static_cast<uint32_t>((w << 6) + __builtin_ctzll(bits));
      }
      pos = bits == 0 ? (w + 1) << 6 : (w << 6) + __builtin_ctzll(bits);
    }
    pos = std::min(pos, ws->morsel_end);
  }
  ws->morsel_pos = pos;
  ws->rows_prefilter += n;
  ProcessStride(rows, n, ws->sel.data(), ws->hashes.data(), ws->keys.data(),
                ws->filter_stats.data(), out);
}

bool ScanOperator::ClaimMorsel(WorkerState* ws, size_t* begin) {
  // Morsel-boundary cancellation point: a cancelled query's workers stop
  // claiming and the drain above unwinds as if the scan ran dry.
  if (CtxShouldStop(query_context())) return false;
  // fetch_add is the only cross-worker synchronization on the hot path.
  const size_t total = num_rows_;
  const size_t b =
      shared_cursor_.fetch_add(morsel_rows_, std::memory_order_relaxed);
  if (b >= total) return false;
  ws->morsel_pos = b;
  ws->morsel_end = std::min(b + morsel_rows_, total);
  *begin = b;
  return true;
}

bool ScanOperator::MorselNext(Batch* out, WorkerState* ws) {
  out->Reset(schema_.size());
  // Keep consuming strides until the output batch fills (or the morsel
  // runs out): under a highly selective filter each stride contributes
  // only a few survivors, and returning them one stride at a time would
  // multiply the per-batch overhead of every operator above us. Capping
  // the stride at the batch's remaining capacity keeps strides near-full.
  while (!out->Full() && ws->morsel_pos < ws->morsel_end) {
    // Stride-boundary cancellation point: one atomic load per ~kBatchSize
    // rows (plus a clock read when a deadline is armed).
    if (CtxShouldStop(query_context())) break;
    ConsumeStride(out, ws);
  }
  ws->rows_out += out->num_rows;
  return out->num_rows > 0;
}

void ScanOperator::MergeWorkerStats(const WorkerState& ws) {
  BQO_CHECK_EQ(ws.filter_stats.size(), filter_stat_slots_.size());
  for (size_t f = 0; f < filter_stat_slots_.size(); ++f) {
    FilterStats* dst = filter_stat_slots_[f];
    dst->probed += ws.filter_stats[f].probed;
    dst->passed += ws.filter_stats[f].passed;
  }
  stats_.rows_prefilter += ws.rows_prefilter;
  stats_.rows_out += ws.rows_out;
}

void ScanOperator::Close() {
  active_filters_.clear();
  filter_stat_slots_.clear();
}

}  // namespace bqo
