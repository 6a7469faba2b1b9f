#include "src/exec/pipeline.h"

#include <algorithm>
#include <memory>

#include "src/common/fault_injector.h"
#include "src/common/thread_clock.h"
#include "src/filter/bitvector_filter.h"
#include "src/server/worker_pool.h"

namespace bqo {

namespace {

/// Per-worker filter fills below this many keys run sequentially: the
/// task submission + partial-filter allocation costs more than the inserts.
constexpr int64_t kMinParallelFilterKeys = 8192;

/// Keys inserted between cancellation polls during a filter fill.
constexpr int64_t kFilterFillStride = 4096;

/// Fault hook + cancellation at the entry of an engine worker task: a
/// fired fault cancels the whole query (first-error-wins), and an already
/// cancelled query's tasks exit before touching any work.
bool WorkerTaskShouldStop(QueryContext* ctx) {
  Status fault = FaultInjector::Global().Check(FaultInjector::Site::kWorkerTask);
  if (!fault.ok() && ctx != nullptr) ctx->Cancel(std::move(fault));
  return CtxShouldStop(ctx);
}

/// Cancellation-aware hash-insert loop shared by the sequential fill and
/// the per-worker partial builds; also the kFilterFill fault hook point.
void FillRange(BitvectorFilter* filter, const uint64_t* hashes, int64_t begin,
               int64_t end, QueryContext* ctx) {
  {
    Status fault =
        FaultInjector::Global().Check(FaultInjector::Site::kFilterFill);
    if (!fault.ok() && ctx != nullptr) ctx->Cancel(std::move(fault));
  }
  for (int64_t i = begin; i < end; i += kFilterFillStride) {
    if (CtxShouldStop(ctx)) return;
    const int64_t stop = std::min(end, i + kFilterFillStride);
    for (int64_t j = i; j < stop; ++j) filter->Insert(hashes[j]);
  }
}

/// Pull the next output batch of `stage` (0 = scan, i = probes[i-1]). The
/// recursion materializes the Volcano pull chain over per-worker states;
/// `morsel_confined` selects the canonical (one-morsel) scan mode.
bool StageNext(const Pipeline& pipe, size_t stage, bool morsel_confined,
               Batch* out, PipelineWorkerState* ws) {
  if (stage == 0) {
    return morsel_confined ? pipe.source->MorselNext(out, &ws->scan)
                           : pipe.source->ParallelNext(out, &ws->scan);
  }
  HashJoinOperator* hj = pipe.probes[stage - 1];
  return hj->ProbeNext(out, &ws->probes[stage - 1], [&](Batch* in) {
    return StageNext(pipe, stage - 1, morsel_confined, in, ws);
  });
}

/// Clear the per-morsel latches so a fresh morsel can stream through the
/// probe chain (the previous morsel always drains to completion first, so
/// only the upstream-exhausted flags and batch cursors need resetting).
void ResetForMorsel(PipelineWorkerState* ws) {
  for (HashJoinOperator::ProbeState& ps : ws->probes) {
    ps.input_done = false;
    ps.cursor = 0;
    ps.in.num_rows = 0;
    ps.pending_entry = -1;
  }
}

/// The output rows one claimed morsel produced, keyed by the morsel's
/// canonical position in the scan selection.
struct MorselChunk {
  size_t begin = 0;
  std::vector<int64_t> rows;  ///< row-major
};

}  // namespace

Pipeline BuildProbePipeline(PhysicalOperator* op) {
  Pipeline pipe;
  std::vector<HashJoinOperator*> chain;  // top-down during the descent
  PhysicalOperator* cur = op;
  for (;;) {
    if (auto* scan = dynamic_cast<ScanOperator*>(cur)) {
      pipe.source = scan;
      break;
    }
    auto* hj = dynamic_cast<HashJoinOperator*>(cur);
    if (hj == nullptr) break;  // breaker (sort-merge, ...): not parallel
    chain.push_back(hj);
    cur = hj->probe_child();
  }
  if (pipe.source != nullptr) {
    pipe.probes.assign(chain.rbegin(), chain.rend());
  }
  return pipe;
}

void InitPipelineWorker(const Pipeline& pipe, PipelineWorkerState* ws) {
  pipe.source->InitWorkerState(&ws->scan);
  ws->probes.resize(pipe.probes.size());
  for (size_t i = 0; i < pipe.probes.size(); ++i) {
    pipe.probes[i]->InitProbeState(&ws->probes[i]);
  }
}

bool PipelineParallelNext(const Pipeline& pipe, Batch* out,
                          PipelineWorkerState* ws) {
  return StageNext(pipe, pipe.probes.size(), /*morsel_confined=*/false, out,
                   ws);
}

void MergePipelineWorkerStats(const Pipeline& pipe, PipelineWorkerState* ws) {
  pipe.source->MergeWorkerStats(&ws->scan);
  for (size_t i = 0; i < pipe.probes.size(); ++i) {
    pipe.probes[i]->MergeProbeStats(&ws->probes[i]);
  }
}

std::vector<int64_t> DrainPipelineParallel(const Pipeline& pipe,
                                           const ExecConfig& exec) {
  BQO_CHECK(pipe.parallel());
  const int num_workers = exec.ResolvedThreads();
  pipe.source->set_morsel_rows(static_cast<size_t>(exec.morsel_rows));

  std::vector<PipelineWorkerState> states(
      static_cast<size_t>(num_workers));
  std::vector<std::vector<MorselChunk>> worker_chunks(
      static_cast<size_t>(num_workers));
  for (auto& ws : states) InitPipelineWorker(pipe, &ws);

  // One task per logical worker on the shared pool; each claims morsels off
  // the shared cursor until exhaustion, so any pool size (helping waiter
  // included) completes the drain with identical chunks. Cancellation
  // unwinds per worker at morsel granularity: ClaimMorsel returns false on
  // a cancelled context, so a cancelled drain completes (short) and the
  // partial canonical reassembly below is simply discarded by the caller.
  WorkerPool::TaskGroup group(&WorkerPool::Global());
  for (int w = 0; w < num_workers; ++w) {
    group.Spawn([&pipe, &states, &worker_chunks, w] {
      if (WorkerTaskShouldStop(pipe.source->query_context())) return;
      PipelineWorkerState& ws = states[static_cast<size_t>(w)];
      std::vector<MorselChunk>& chunks =
          worker_chunks[static_cast<size_t>(w)];
      const int64_t start = ThreadCpuNanos();
      Batch batch;
      size_t begin = 0;
      while (pipe.source->ClaimMorsel(&ws.scan, &begin)) {
        ResetForMorsel(&ws);
        MorselChunk chunk;
        chunk.begin = begin;
        while (StageNext(pipe, pipe.probes.size(), /*morsel_confined=*/true,
                         &batch, &ws)) {
          const int ncols = batch.num_cols();
          for (int r = 0; r < batch.num_rows; ++r) {
            for (int c = 0; c < ncols; ++c) {
              chunk.rows.push_back(batch.col(c)[r]);
            }
          }
        }
        chunks.push_back(std::move(chunk));
      }
      ws.scan.busy_ns += ThreadCpuNanos() - start;
    });
  }
  group.Wait();
  for (auto& ws : states) MergePipelineWorkerStats(pipe, &ws);

  // Reassemble in canonical order: morsel begins are unique cursor offsets,
  // so sorting by them reproduces the selection (= single-threaded) order.
  std::vector<const MorselChunk*> order;
  size_t total = 0;
  for (const auto& chunks : worker_chunks) {
    for (const MorselChunk& c : chunks) {
      order.push_back(&c);
      total += c.rows.size();
    }
  }
  std::sort(order.begin(), order.end(),
            [](const MorselChunk* a, const MorselChunk* b) {
              return a->begin < b->begin;
            });
  std::vector<int64_t> rows;
  rows.reserve(total);
  for (const MorselChunk* c : order) {
    rows.insert(rows.end(), c->rows.begin(), c->rows.end());
  }
  return rows;
}

void FillFilterParallel(BitvectorFilter* filter, const FilterConfig& config,
                        const uint64_t* hashes, int64_t n,
                        const ExecConfig& exec, QueryContext* ctx) {
  const int workers = exec.ResolvedThreads();
  // Small builds fill sequentially: the task submission + partial
  // allocation isn't worth it.
  if (workers <= 1 || n < kMinParallelFilterKeys) {
    FillRange(filter, hashes, 0, n, ctx);
    return;
  }

  // Every kind's inserts commute (set union / bitwise OR), so per-worker
  // partials over contiguous partitions merge into bits identical to the
  // sequential build, and MergeFrom reproduces the sequential NumInserted
  // (exactly for Exact by set semantics, exactly for both Bloom kinds via
  // the insert journals replayed against the merged prefix).
  std::vector<std::unique_ptr<BitvectorFilter>> partials(
      static_cast<size_t>(workers));
  WorkerPool::TaskGroup group(&WorkerPool::Global());
  const int64_t chunk = (n + workers - 1) / workers;
  for (int w = 0; w < workers; ++w) {
    group.Spawn([&partials, &config, hashes, n, chunk, w, ctx] {
      if (CtxShouldStop(ctx)) return;
      const int64_t begin = static_cast<int64_t>(w) * chunk;
      const int64_t end = std::min(n, begin + chunk);
      if (begin >= end) return;
      // Bloom partials (classical and blocked) share the final filter's
      // geometry (sized for the whole build) so blocks OR together; Exact
      // partials only need their own partition's capacity.
      const bool bloom_like = config.kind == FilterKind::kBloom ||
                              config.kind == FilterKind::kBlockedBloom;
      auto partial = CreateFilter(config, bloom_like ? n : end - begin);
      partial->EnableInsertTracking();
      FillRange(partial.get(), hashes, begin, end, ctx);
      partials[static_cast<size_t>(w)] = std::move(partial);
    });
  }
  group.Wait();
  // A cancelled fill skips the merge entirely: the partially built filter
  // is never consulted (the query unwinds before its probe side opens).
  if (CtxShouldStop(ctx)) return;
  for (auto& partial : partials) {
    if (partial != nullptr) filter->MergeFrom(*partial);
  }
}

}  // namespace bqo
