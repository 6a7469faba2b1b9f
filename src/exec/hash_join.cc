#include "src/exec/hash_join.h"

#include <algorithm>
#include <new>
#include <string>
#include <utility>

#include "src/common/bit_util.h"
#include "src/common/hash.h"
#include "src/exec/pipeline.h"
#include "src/exec/scan.h"
#include "src/filter/bloom_filter.h"
#include "src/filter/filter_kernels.h"
#include "src/optimizer/build_signature.h"
#include "src/server/build_cache.h"

namespace bqo {

namespace {

/// Begin the lifetime of `count` unwritten Ts at `*next` (placement array
/// new of a trivial type performs no initialization) and advance `*next`
/// past them.
template <typename T>
T* CarveArray(std::byte** next, size_t count) {
  T* array = new (*next) T[count];
  *next += count * sizeof(T);
  return array;
}

/// Logical tuples behind `n` rows of multiplicities `mult` (null: each
/// row counts once), modulo 2^64 like every logical counter they feed.
uint64_t TotalMultiplicity(const int64_t* mult, int n) {
  if (mult == nullptr) return static_cast<uint64_t>(n);
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) total += static_cast<uint64_t>(mult[i]);
  return total;
}

/// Logical tuples behind the `m` selected candidates `sel`.
uint64_t SelectedMultiplicity(const int64_t* mult, const uint16_t* sel,
                              int m) {
  if (mult == nullptr) return static_cast<uint64_t>(m);
  uint64_t total = 0;
  for (int j = 0; j < m; ++j) total += static_cast<uint64_t>(mult[sel[j]]);
  return total;
}

}  // namespace

HashJoinOperator::HashJoinOperator(std::unique_ptr<PhysicalOperator> build,
                                   std::unique_ptr<PhysicalOperator> probe,
                                   OutputSchema schema, Config config,
                                   FilterRuntime* runtime, std::string label)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      config_(std::move(config)),
      runtime_(runtime) {
  schema_ = std::move(schema);
  stats_.type = OperatorType::kHashJoin;
  stats_.label = std::move(label);
  BQO_CHECK(!config_.build_key_positions.empty());
  BQO_CHECK_EQ(config_.build_key_positions.size(),
               config_.probe_key_positions.size());
  BQO_CHECK_LE(config_.build_key_positions.size(), size_t{8});
  build_width_ = build_->output_schema().size();
  if (config_.counts_matches) {
    for (const auto& src : config_.output_sources) {
      BQO_CHECK_MSG(!src.first, "a counting join outputs no build column");
    }
  }

  // A residual filter whose key columns are exactly this join's equi-join
  // keys (in order, sourced from either side — the sides agree on every
  // matched row) hashes to the probe-row hash already computed by
  // StartProbeBatch; flag those so WinnowResiduals can skip the recompute.
  residual_uses_probe_hash_.reserve(config_.residual_filters.size());
  const size_t nkeys = config_.build_key_positions.size();
  for (const ResolvedFilter& rf : config_.residual_filters) {
    bool reuses = rf.key_positions.size() == nkeys;
    for (size_t k = 0; reuses && k < nkeys; ++k) {
      const auto& src =
          config_.output_sources[static_cast<size_t>(rf.key_positions[k])];
      const int want = src.first ? config_.build_key_positions[k]
                                 : config_.probe_key_positions[k];
      reuses = src.second == want;
    }
    residual_uses_probe_hash_.push_back(reuses ? 1 : 0);
    if (!reuses) {
      residual_hash_keys_ =
          std::max(residual_hash_keys_, rf.key_positions.size());
    }
  }
}

void HashJoinOperator::HashBuildRows(const JoinBuildSide& side,
                                     std::vector<uint64_t>* hashes) const {
  const size_t nkeys = config_.build_key_positions.size();
  const size_t width = static_cast<size_t>(build_width_);
  const int64_t num_rows =
      width == 0 ? 0 : static_cast<int64_t>(side.rows.size() / width);
  hashes->resize(static_cast<size_t>(num_rows));
  ScratchVector<int64_t> keybuf(nkeys * kBatchSize);
  const int64_t* cols[8];
  for (int64_t base = 0; base < num_rows; base += kBatchSize) {
    const int n = static_cast<int>(
        std::min<int64_t>(kBatchSize, num_rows - base));
    for (size_t k = 0; k < nkeys; ++k) {
      int64_t* dst = keybuf.data() + k * kBatchSize;
      const size_t pos =
          static_cast<size_t>(config_.build_key_positions[k]);
      for (int i = 0; i < n; ++i) {
        dst[i] = side.rows[(static_cast<size_t>(base) +
                            static_cast<size_t>(i)) *
                               width +
                           pos];
      }
      cols[k] = dst;
    }
    uint64_t* out = hashes->data() + base;
    if (nkeys == 1) {
      HashColumnKernel(cols[0], n, out);
    } else {
      HashCompositeBatchKernel(cols, nkeys, n, out);
    }
  }
}

std::shared_ptr<const JoinBuildSide> HashJoinOperator::ConstructBuildSide() {
  auto side = std::make_shared<JoinBuildSide>();
  side->width = build_width_;

  // ---- Drain (wide when possible), hash, filter, bucketize ----
  build_->Open();
  side->rows =
      DrainPipeline(BuildProbePipeline(build_.get()), config_.exec, &stats_);
  build_->Close();

  std::vector<uint64_t> hashes;
  HashBuildRows(*side, &hashes);

  // Create this join's bitvector filter, sized exactly to the build side.
  // The hashes are in canonical (single-threaded) order, so the sequential
  // and per-worker-partial fill strategies both reproduce the
  // single-threaded filter (see FillFilterParallel). A cancelled query may
  // leave the filter partially filled; that's fine — its results are void,
  // the probe side's strides stop claiming work anyway, and Open() never
  // publishes a cancelled construction to the BuildCache.
  if (config_.creates_filter_id >= 0) {
    side->filter = CreateFilter(config_.filter_config,
                                static_cast<int64_t>(hashes.size()));
    FillFilterParallel(side->filter.get(), config_.filter_config,
                       hashes.data(), static_cast<int64_t>(hashes.size()),
                       config_.exec, runtime_->context);
    side->filter_inserted = side->filter->NumInserted();
    side->filter_size_bytes = side->filter->SizeBytes();
  }

  side->Bucketize(hashes);

  // As-if-built snapshot of the build scan's counters, replayed into a
  // hitting query's scan stats so leaf_tuples stays identical to a cold run.
  if (const auto* scan = dynamic_cast<const ScanOperator*>(build_.get())) {
    side->scan_rows_out = scan->stats().rows_out;
    side->scan_rows_prefilter = scan->stats().rows_prefilter;
  }
  return side;
}

void HashJoinOperator::Open() {
  TimerGuard timer(&stats_.ns_inclusive);

  // ---- Build phase: obtain the build side, shared through the server's
  // BuildCache when one is wired up and this build is shareable, privately
  // constructed otherwise.
  BuildCache* cache = runtime_ != nullptr ? runtime_->build_cache : nullptr;
  std::string signature;
  if (cache != nullptr) {
    signature = BuildSideSignature(*build_, config_.build_key_positions,
                                   config_.filter_config,
                                   config_.creates_filter_id >= 0);
  }
  QueryTrace* trace =
      runtime_ != nullptr ? CtxTrace(runtime_->context) : nullptr;
  bool built_locally = false;
  if (signature.empty()) {
    ScopedSpan span(trace, SpanKind::kBuild, "build " + stats_.label);
    build_side_ = ConstructBuildSide();
    built_locally = true;
  } else {
    // The acquire span covers the whole cache interaction — a hit's lookup,
    // or a waiter's park behind the flight leader; the nested build span
    // exists only when this query ended up constructing.
    ScopedSpan acquire(trace, SpanKind::kBuildAcquire,
                       "acquire " + stats_.label);
    build_side_ = cache->GetOrBuild(
        signature, runtime_->catalog_version, runtime_->context,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          built_locally = true;
          ScopedSpan span(trace, SpanKind::kBuild, "build " + stats_.label);
          std::shared_ptr<const JoinBuildSide> side = ConstructBuildSide();
          // A cancelled or faulted construction may be partial (drains and
          // fills unwind at stride boundaries): never hand it to waiters.
          if (runtime_->context != nullptr &&
              runtime_->context->IsCancelled()) {
            return nullptr;
          }
          return side;
        });
    if (build_side_ == nullptr) {
      // Cancelled while waiting or building — by this query's own
      // deadline/client or by a failed flight leader. Install an empty
      // table so straggling probe calls and Close() stay well-defined
      // while the query unwinds; results are void.
      build_side_ = EmptyJoinBuildSide(build_width_);
      built_locally = true;  // nothing as-if-built to replay
    }
  }
  side_ = build_side_.get();

  // Share the filter and report its stats uniformly, whether this query
  // built the side or received it: the runtime slot co-owns the filter and
  // the counters come from the side's as-if-built snapshot, so FilterStats
  // are identical either way.
  if (config_.creates_filter_id >= 0 && side_->filter != nullptr) {
    runtime_->slots[static_cast<size_t>(config_.creates_filter_id)] =
        side_->filter;
    FilterStats& fs =
        runtime_->stats[static_cast<size_t>(config_.creates_filter_id)];
    fs.created = true;
    fs.inserted = side_->filter_inserted;
    fs.size_bytes = side_->filter_size_bytes;
  }
  if (!built_locally) {
    // Cache hit: the build child never executed this query. Replay the
    // side's snapshot of the build scan's counters so leaf_tuples matches
    // the query that actually built.
    if (auto* scan = dynamic_cast<ScanOperator*>(build_.get())) {
      scan->stats().rows_out = side_->scan_rows_out;
      scan->stats().rows_prefilter = side_->scan_rows_prefilter;
    }
  }

  // ---- Probe side opens only after the filter exists ----
  probe_->Open();
}

void HashJoinOperator::AllocateProbeScratch(ProbeState* ps) const {
  // One block, widest elements first so every array stays aligned.
  constexpr size_t kHashBytes = kBatchSize * sizeof(uint64_t);
  constexpr size_t kRowBytes = kBatchSize * sizeof(int32_t);
  constexpr size_t kSelBytes = kBatchSize * sizeof(uint16_t);
  const size_t residual_bytes =
      residual_hash_keys_ == 0 ? 0 : (1 + residual_hash_keys_) * kHashBytes;
  ps->scratch = std::make_unique_for_overwrite<std::byte[]>(
      3 * kHashBytes + residual_bytes + 2 * kRowBytes + kSelBytes);
  std::byte* next = ps->scratch.get();
  ps->hashes = CarveArray<uint64_t>(&next, kBatchSize);
  ps->cand_hash = CarveArray<uint64_t>(&next, kBatchSize);
  ps->cand_mult = CarveArray<int64_t>(&next, kBatchSize);
  if (residual_hash_keys_ > 0) {
    ps->rhashes = CarveArray<uint64_t>(&next, kBatchSize);
    ps->rkeys = CarveArray<int64_t>(&next, residual_hash_keys_ * kBatchSize);
  }
  ps->cand_build = CarveArray<int32_t>(&next, kBatchSize);
  ps->cand_probe = CarveArray<int32_t>(&next, kBatchSize);
  ps->sel = CarveArray<uint16_t>(&next, kBatchSize);
  ps->residual_stats.assign(config_.residual_filters.size(), FilterStats{});
}

void HashJoinOperator::StartProbeBatch(ProbeState* ps) const {
  const int n = ps->in.num_rows;
  ps->cursor = 0;
  AddWrapping(&ps->rows_in, TotalMultiplicity(ps->in.multiplicity(), n));
  const size_t nkeys = config_.probe_key_positions.size();
  const int64_t* key_cols[8];
  for (size_t k = 0; k < nkeys; ++k) {
    key_cols[k] = ps->in.col(config_.probe_key_positions[k]);
  }
  uint64_t* hashes = ps->hashes;
  if (nkeys == 1) {
    HashColumnKernel(key_cols[0], n, hashes);
  } else {
    HashCompositeBatchKernel(key_cols, nkeys, n, hashes);
  }
  // Prefetch the bucket heads: the stride's lookups are independent, so the
  // misses overlap here instead of serializing one per probe row.
  for (int r = 0; r < n; ++r) {
    __builtin_prefetch(&side_->buckets[hashes[r] & side_->bucket_mask], 0, 1);
  }
}

bool HashJoinOperator::KeysEqual(const JoinBuildSide::Entry& entry,
                                 const Batch& batch, int row) const {
  const size_t nkeys = config_.build_key_positions.size();
  for (size_t k = 0; k < nkeys; ++k) {
    const int64_t build_val =
        side_->rows[static_cast<size_t>(entry.row_start) +
                    static_cast<size_t>(config_.build_key_positions[k])];
    const int64_t probe_val =
        batch.col(config_.probe_key_positions[k])[row];
    if (build_val != probe_val) return false;
  }
  return true;
}

int HashJoinOperator::WinnowResiduals(ProbeState* ps, int ncand,
                                      const int64_t* mult) {
  uint16_t* sel = ps->sel;
  for (int i = 0; i < ncand; ++i) sel[i] = static_cast<uint16_t>(i);
  int m = ncand;

  // Residual filters (Algorithm 1 lines 24-29) evaluate on the joined row,
  // batched: each filter hashes the still-selected candidates' keys in one
  // pass and compacts the selection through MayContainBatch (prefetched
  // probes). The winnow order preserves the row-at-a-time early exit: a
  // candidate rejected by filter f is never probed against filter f+1.
  for (size_t f = 0; f < config_.residual_filters.size() && m > 0; ++f) {
    const ResolvedFilter& rf = config_.residual_filters[f];
    const BitvectorFilter* filter =
        runtime_->slots[static_cast<size_t>(rf.filter_id)].get();
    if (filter == nullptr) continue;
    const uint64_t* hashes;
    if (residual_uses_probe_hash_[f]) {
      // The join-key probe hash doubles as this filter's composite hash and
      // is already position-aligned with the candidates.
      hashes = ps->cand_hash;
    } else {
      const size_t nkeys = rf.key_positions.size();
      uint64_t* rhashes = ps->rhashes;
      if (m == ncand) {
        // Dense fast path (first winnowing filter): gather the key columns
        // candidate-contiguous and hash the whole stride batched.
        const int64_t* cols[8];
        for (size_t k = 0; k < nkeys; ++k) {
          int64_t* dst = ps->rkeys + k * kBatchSize;
          const auto& src = config_.output_sources[static_cast<size_t>(
              rf.key_positions[k])];
          if (src.first) {
            for (int i = 0; i < ncand; ++i) {
              dst[i] = side_->rows[static_cast<size_t>(ps->cand_build[i]) +
                                   static_cast<size_t>(src.second)];
            }
          } else {
            const int64_t* col = ps->in.col(src.second);
            for (int i = 0; i < ncand; ++i) dst[i] = col[ps->cand_probe[i]];
          }
          cols[k] = dst;
        }
        if (nkeys == 1) {
          HashColumnKernel(cols[0], ncand, rhashes);
        } else {
          HashCompositeBatchKernel(cols, nkeys, ncand, rhashes);
        }
      } else {
        for (int j = 0; j < m; ++j) {
          const uint16_t pos = sel[j];
          int64_t key[8];
          for (size_t k = 0; k < nkeys; ++k) {
            const auto& src = config_.output_sources[static_cast<size_t>(
                rf.key_positions[k])];
            key[k] =
                src.first
                    ? side_->rows[static_cast<size_t>(ps->cand_build[pos]) +
                                  static_cast<size_t>(src.second)]
                    : ps->in.col(src.second)[ps->cand_probe[pos]];
          }
          rhashes[pos] = HashComposite(key, nkeys);
        }
      }
      hashes = rhashes;
    }
    FilterStats& fs = ps->residual_stats[f];
    AddWrapping(&fs.probed, SelectedMultiplicity(mult, sel, m));
    m = FilterMayContainBatch(filter, hashes, sel, m);
    AddWrapping(&fs.passed, SelectedMultiplicity(mult, sel, m));
  }
  return m;
}

bool HashJoinOperator::ProbeNext(Batch* out, ProbeState* ps,
                                 NextInputFn next_input) {
  out->Reset(schema_.size());
  if (ps->scratch == nullptr) {
    // No probe row has arrived yet: the scratch is allocated only once the
    // first one does, so a join whose probe input is empty allocates none.
    if (ps->input_done || !next_input(&ps->in)) {
      ps->input_done = true;
      return false;
    }
    AllocateProbeScratch(ps);
    StartProbeBatch(ps);
  }
  const JoinBuildSide::Entry* entries = side_->entries.data();
  const int32_t* buckets = side_->buckets.data();
  const uint64_t bucket_mask = side_->bucket_mask;
  const bool single_key = config_.build_key_positions.size() == 1;
  const bool counting = config_.counts_matches;
  int32_t* cand_build = ps->cand_build;
  int32_t* cand_probe = ps->cand_probe;
  uint64_t* cand_hash = ps->cand_hash;
  int64_t* cand_mult = ps->cand_mult;
  // The input's multiplicities; re-read whenever `in` is refilled.
  const int64_t* in_mult = ps->in.multiplicity();

  while (!out->Full()) {
    // ---- Collect candidate matches (hash + key equality, pre-residual) --
    const int capacity = kBatchSize - out->num_rows;
    int ncand = 0;
    while (ncand < capacity) {
      // One segment of a probe row's bucket run [i, end): resumed where the
      // previous stride cut it, or started at the next probe row. The walk
      // runs in locals and writes its position back once per segment.
      int32_t i = ps->pending_entry;
      int32_t end = ps->pending_end;
      int probe_row;
      uint64_t h;
      bool matched;
      if (i < end) {
        probe_row = ps->cursor - 1;
        h = ps->pending_hash;
        matched = ps->pending_matched;
      } else {
        if (ps->cursor >= ps->in.num_rows) {
          // Flush buffered candidates before replacing the input batch: they
          // reference rows of the current one.
          if (ncand > 0) break;
          if (ps->input_done || !next_input(&ps->in)) {
            ps->input_done = true;
            break;
          }
          StartProbeBatch(ps);
          in_mult = ps->in.multiplicity();
          continue;
        }
        probe_row = ps->cursor++;
        h = ps->hashes[probe_row];
        const uint64_t b = h & bucket_mask;
        i = buckets[b];
        end = buckets[b + 1];
        if (i == end) continue;  // empty bucket: no segment to walk
        matched = false;
      }

      // The run mixes genuine duplicates with bucket collisions; the
      // precomputed hash rejects collisions without touching key columns.
      // With one key, equal hashes prove equal keys: the single-column hash
      // HashCombine(CompositeSeed(0), v) is a bijection of v (see
      // HashBijection.SingleKeyHashInvertsToItsKey in
      // tests/test_simd_kernels.cc), so only multi-key joins compare keys.
      const int first = ncand;
      if (counting) {
        // One candidate per matched probe row, with its match count. A
        // counting row takes one candidate slot, so its run is walked
        // whole and never left pending; a pure bucket's single-key count
        // is the run length.
        int64_t count = 0;
        if (single_key && entries[i].pure_bucket != 0) {
          count = entries[i].hash == h ? end - i : 0;
        } else {
          for (; i < end; ++i) {
            count += entries[i].hash == h &&
                     (single_key || KeysEqual(entries[i], ps->in, probe_row));
          }
        }
        i = end;
        if (count > 0) {
          cand_probe[ncand] = probe_row;
          cand_hash[ncand] = h;
          cand_mult[ncand] = count;
          ++ncand;
        }
      } else {
        for (; i < end && ncand < capacity; ++i) {
          if (entries[i].hash != h ||
              (!single_key && !KeysEqual(entries[i], ps->in, probe_row))) {
            continue;
          }
          cand_build[ncand] = entries[i].row_start;
          cand_probe[ncand] = probe_row;
          cand_hash[ncand] = h;
          ++ncand;
        }
      }
      if (ncand > first && !matched) {
        matched = true;
        AddWrapping(&ps->rows_matched,
                    in_mult == nullptr
                        ? 1
                        : static_cast<uint64_t>(in_mult[probe_row]));
      }
      ps->pending_entry = i;
      ps->pending_end = end;
      ps->pending_hash = h;
      ps->pending_matched = matched;
    }
    if (ncand == 0) break;  // input exhausted with nothing buffered

    // A candidate's multiplicity is its match count times its probe row's
    // multiplicity. A stride of single matches over input without
    // multiplicities carries none (mult stays null: each counts once).
    const int64_t* mult = nullptr;
    if (counting || in_mult != nullptr) {
      if (in_mult != nullptr) {
        for (int j = 0; j < ncand; ++j) {
          const int64_t w = in_mult[cand_probe[j]];
          // Unsigned, so a product past INT64_MAX wraps instead of being
          // undefined.
          cand_mult[j] = counting ? static_cast<int64_t>(
                                        static_cast<uint64_t>(cand_mult[j]) *
                                        static_cast<uint64_t>(w))
                                  : w;
        }
      }
      mult = cand_mult;
    }
    AddWrapping(&ps->rows_prefilter, TotalMultiplicity(mult, ncand));

    // A join with residual filters compacts its candidates to the
    // survivors (the selection ascends, so in place), then every join
    // materializes the first m candidates the same way.
    int m = ncand;
    if (!config_.residual_filters.empty()) {
      m = WinnowResiduals(ps, ncand, mult);
      if (m == 0) continue;  // nothing to materialize
      if (m < ncand) {
        const uint16_t* sel = ps->sel;
        for (int j = 0; j < m; ++j) {
          if (!counting) cand_build[j] = cand_build[sel[j]];
          cand_probe[j] = cand_probe[sel[j]];
          if (mult != nullptr) cand_mult[j] = cand_mult[sel[j]];
        }
      }
    }

    // ---- Materialize the survivors, appending to `out` ----
    for (size_t c = 0; c < config_.output_sources.size(); ++c) {
      const auto& src = config_.output_sources[c];
      int64_t* dst = out->col(static_cast<int>(c)) + out->num_rows;
      if (src.first) {
        const int64_t* rows = side_->rows.data() + src.second;
        for (int j = 0; j < m; ++j) dst[j] = rows[cand_build[j]];
      } else {
        const int64_t* col = ps->in.col(src.second);
        for (int j = 0; j < m; ++j) dst[j] = col[cand_probe[j]];
      }
    }
    // The output gets a multiplicity column once some row's is not 1; once
    // it has one, every later stride writes it too, as ones when the
    // stride carries none (`out` may be filled from several input batches,
    // not all of which have a multiplicity column).
    if (out->multiplicity() != nullptr ||
        (mult != nullptr &&
         std::any_of(mult, mult + m, [](int64_t w) { return w != 1; }))) {
      int64_t* dst = out->mutable_multiplicity() + out->num_rows;
      if (mult != nullptr) {
        std::copy_n(mult, m, dst);
      } else {
        std::fill_n(dst, m, int64_t{1});
      }
    }
    out->num_rows += m;
    AddWrapping(&ps->rows_out, TotalMultiplicity(mult, m));
  }

  ps->rows_emitted += out->num_rows;
  return out->num_rows > 0;
}

void HashJoinOperator::MergeProbeStats(const ProbeState& ps) {
  for (size_t f = 0; f < ps.residual_stats.size(); ++f) {
    FilterStats* dst = &runtime_->stats[static_cast<size_t>(
        config_.residual_filters[f].filter_id)];
    AddWrapping(&dst->probed,
                static_cast<uint64_t>(ps.residual_stats[f].probed));
    AddWrapping(&dst->passed,
                static_cast<uint64_t>(ps.residual_stats[f].passed));
  }
  AddWrapping(&stats_.rows_prefilter, static_cast<uint64_t>(ps.rows_prefilter));
  AddWrapping(&stats_.rows_out, static_cast<uint64_t>(ps.rows_out));
  stats_.rows_emitted += ps.rows_emitted;
  AddWrapping(&stats_.probe_rows_in, static_cast<uint64_t>(ps.rows_in));
  AddWrapping(&stats_.probe_rows_matched,
              static_cast<uint64_t>(ps.rows_matched));
}

void HashJoinOperator::Close() {
  probe_->Close();
  // Drop this query's reference; a cache- or peer-shared side stays alive
  // for its other owners.
  side_ = nullptr;
  build_side_.reset();
}

}  // namespace bqo
