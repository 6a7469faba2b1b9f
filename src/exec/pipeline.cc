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

/// One worker's private state for one pipeline: scan scratch, one
/// re-entrant ProbeState per join on the chain, and the accumulators the
/// driver merges once the worker is joined.
struct PipelineWorkerState {
  ScanOperator::WorkerState scan;
  std::vector<HashJoinOperator::ProbeState> probes;  ///< aligned w/ Pipeline
  /// Wall ns inside each stage call, children included: [0] the scan,
  /// [i] probes[i - 1].
  std::vector<int64_t> stage_ns;
  int64_t cpu_ns = 0;  ///< thread CPU of this worker's pool task
};

/// What a pipeline's workers hand their output batches to. Consume is
/// called concurrently for distinct workers, never for the same one.
class PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  /// Worker `worker` starts streaming the morsel whose first table row is
  /// `begin`.
  virtual void BeginMorsel(int /*worker*/, size_t /*begin*/) {}
  virtual void Consume(int worker, const Batch& batch) = 0;
};

/// Pull the next output batch of `stage` (0 = scan, i = probes[i-1]) off
/// the worker's claimed morsel; each stage pulls its input through a
/// non-owning callback into the stage below.
bool StageNext(const Pipeline& pipe, size_t stage, Batch* out,
               PipelineWorkerState* ws) {
  TimerGuard timer(&ws->stage_ns[stage]);
  if (stage == 0) return pipe.source->MorselNext(out, &ws->scan);
  const auto input = [&pipe, stage, ws](Batch* in) {
    return StageNext(pipe, stage - 1, in, ws);
  };
  return pipe.probes[stage - 1]->ProbeNext(out, &ws->probes[stage - 1],
                                           input);
}

/// Clear the per-morsel latches so a fresh morsel can stream through the
/// probe chain (the previous morsel always drains to completion first, so
/// only the upstream-exhausted flags and batch cursors need resetting).
void ResetForMorsel(PipelineWorkerState* ws) {
  for (HashJoinOperator::ProbeState& ps : ws->probes) {
    ps.input_done = false;
    ps.cursor = 0;
    ps.in.num_rows = 0;
    ps.pending_entry = 0;
    ps.pending_end = 0;
  }
}

/// The worker loop: claim morsels until the cursor runs dry, streaming
/// each through the whole chain into `sink`.
void RunWorker(const Pipeline& pipe, int worker, PipelineWorkerState* ws,
               PipelineSink* sink) {
  Batch batch;
  size_t begin = 0;
  while (pipe.source->ClaimMorsel(&ws->scan, &begin)) {
    ResetForMorsel(ws);
    sink->BeginMorsel(worker, begin);
    while (StageNext(pipe, pipe.probes.size(), &batch, ws)) {
      sink->Consume(worker, batch);
    }
  }
}

/// Run `pipe` to exhaustion on `num_workers` workers, then merge every
/// worker's accumulators into the pipeline's operators (and the pool
/// tasks' CPU and worker count into `owner`).
void RunPipeline(const Pipeline& pipe, int num_workers, int morsel_rows,
                 PipelineSink* sink, OperatorStats* owner) {
  ScanOperator* source = pipe.source;
  // One worker streams the whole table as a single morsel.
  source->set_morsel_rows(
      num_workers == 1 ? static_cast<size_t>(source->table()->num_rows())
                       : static_cast<size_t>(morsel_rows));
  std::vector<PipelineWorkerState> states(static_cast<size_t>(num_workers));
  for (PipelineWorkerState& ws : states) {
    source->InitWorkerState(&ws.scan);
    // Fresh probe states: each join allocates its scratch in ProbeNext,
    // when this worker's first probe row reaches it.
    ws.probes.resize(pipe.probes.size());
    ws.stage_ns.assign(pipe.probes.size() + 1, 0);
  }

  if (num_workers == 1) {
    RunWorker(pipe, 0, &states[0], sink);
  } else {
    // One task per logical worker on the shared pool; each claims morsels
    // off the shared cursor until exhaustion, so any pool size (helping
    // waiter included) completes the run with identical output.
    // Cancellation unwinds per worker at stride and morsel granularity:
    // a cancelled run completes short and its output is void.
    WorkerPool::TaskGroup group(&WorkerPool::Global());
    for (int w = 0; w < num_workers; ++w) {
      group.Spawn([&pipe, &states, sink, w] {
        if (WorkerTaskShouldStop(pipe.source->query_context())) return;
        PipelineWorkerState& ws = states[static_cast<size_t>(w)];
        const int64_t start = ThreadCpuNanos();
        RunWorker(pipe, w, &ws, sink);
        ws.cpu_ns = ThreadCpuNanos() - start;
      });
    }
    group.Wait();
    owner->parallel_workers = num_workers;
  }

  for (PipelineWorkerState& ws : states) {
    source->MergeWorkerStats(ws.scan);
    source->stats().ns_inclusive += ws.stage_ns[0];
    for (size_t i = 0; i < pipe.probes.size(); ++i) {
      pipe.probes[i]->MergeProbeStats(ws.probes[i]);
      pipe.probes[i]->stats().ns_inclusive += ws.stage_ns[i + 1];
    }
    owner->worker_cpu_ns += ws.cpu_ns;
  }
}

/// The output rows one claimed morsel produced, keyed by the morsel's
/// canonical position: its first table row.
struct MorselChunk {
  size_t begin = 0;
  std::vector<int64_t> rows;  ///< row-major
};

/// Hash-join build sink: one worker appends straight into the result;
/// several append per-morsel chunks that Finish() reassembles.
class RowsSink final : public PipelineSink {
 public:
  RowsSink(int num_workers, std::vector<int64_t>* rows)
      : rows_(rows),
        worker_chunks_(num_workers > 1 ? static_cast<size_t>(num_workers)
                                       : 0) {}

  void BeginMorsel(int worker, size_t begin) override {
    if (!worker_chunks_.empty()) {
      worker_chunks_[static_cast<size_t>(worker)].push_back({begin, {}});
    }
  }

  void Consume(int worker, const Batch& batch) override {
    // Only joins on the aggregate's top pipeline count matches, so a build
    // pipeline's batches carry no multiplicities to expand.
    BQO_CHECK_MSG(batch.multiplicity() == nullptr,
                  "a build pipeline produced row multiplicities");
    AppendRowMajor(batch,
                   worker_chunks_.empty()
                       ? rows_
                       : &worker_chunks_[static_cast<size_t>(worker)]
                              .back()
                              .rows);
  }

  /// Reassemble the chunks in canonical order: morsel begins are unique
  /// cursor offsets, so sorting by them reproduces the table (= one-
  /// worker) order.
  void Finish() {
    std::vector<const MorselChunk*> order;
    size_t total = 0;
    for (const auto& chunks : worker_chunks_) {
      for (const MorselChunk& c : chunks) {
        order.push_back(&c);
        total += c.rows.size();
      }
    }
    std::sort(order.begin(), order.end(),
              [](const MorselChunk* a, const MorselChunk* b) {
                return a->begin < b->begin;
              });
    rows_->reserve(rows_->size() + total);
    for (const MorselChunk* c : order) {
      rows_->insert(rows_->end(), c->rows.begin(), c->rows.end());
    }
  }

 private:
  std::vector<int64_t>* rows_;
  std::vector<std::vector<MorselChunk>> worker_chunks_;
};

/// Aggregate sink: each worker folds into its own partial.
class FoldSink final : public PipelineSink {
 public:
  FoldSink(const AggFold& fold, QueryContext* ctx,
           std::vector<PartialAggState>* partials)
      : fold_(fold), ctx_(ctx), partials_(partials) {}

  void Consume(int worker, const Batch& batch) override {
    // Fault hook at the fold: a fired fault cancels the whole query
    // first-error-wins, exactly as a real fold failure would surface.
    Status fault =
        FaultInjector::Global().Check(FaultInjector::Site::kAggregateFold);
    if (!fault.ok()) {
      if (ctx_ != nullptr) ctx_->Cancel(std::move(fault));
      return;
    }
    fold_.Fold(batch, &(*partials_)[static_cast<size_t>(worker)]);
  }

 private:
  const AggFold& fold_;
  QueryContext* ctx_;
  std::vector<PartialAggState>* partials_;
};

}  // namespace

Pipeline BuildProbePipeline(PhysicalOperator* op) {
  Pipeline pipe;
  std::vector<HashJoinOperator*> chain;  // top-down during the descent
  PhysicalOperator* cur = op;
  while (auto* hj = dynamic_cast<HashJoinOperator*>(cur)) {
    chain.push_back(hj);
    cur = hj->probe_child();
  }
  pipe.source = dynamic_cast<ScanOperator*>(cur);
  BQO_CHECK_MSG(pipe.source != nullptr,
                "a probe chain must bottom out in a scan");
  pipe.probes.assign(chain.rbegin(), chain.rend());
  return pipe;
}

std::vector<int64_t> DrainPipeline(const Pipeline& pipe,
                                   const ExecConfig& exec,
                                   OperatorStats* owner) {
  const int num_workers = exec.ResolvedThreads();
  std::vector<int64_t> rows;
  RowsSink sink(num_workers, &rows);
  RunPipeline(pipe, num_workers, exec.morsel_rows, &sink, owner);
  sink.Finish();
  return rows;
}

std::vector<PartialAggState> FoldPipeline(const Pipeline& pipe,
                                          const ExecConfig& exec,
                                          const AggFold& fold,
                                          OperatorStats* owner) {
  const int num_workers = exec.ResolvedThreads();
  std::vector<PartialAggState> partials(static_cast<size_t>(num_workers));
  FoldSink sink(fold, pipe.source->query_context(), &partials);
  RunPipeline(pipe, num_workers, exec.morsel_rows, &sink, owner);
  return partials;
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
  // (exactly for Exact by set semantics, exactly for Bloom via
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
      // Bloom partials share the final filter's geometry (sized for the
      // whole build) so blocks OR together; Exact partials only need their
      // own partition's capacity.
      auto partial = CreateFilter(
          config, config.kind != FilterKind::kExact ? n : end - begin);
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
