#include "src/exec/exchange.h"

#include <utility>

#include "src/common/fault_injector.h"
#include "src/common/thread_clock.h"

namespace bqo {

ExchangeOperator::ExchangeOperator(std::unique_ptr<PhysicalOperator> child,
                                   ExecConfig config, const AggSpec& agg,
                                   std::string label)
    : child_(std::move(child)), config_(config) {
  schema_ = child_->output_schema();
  stats_.type = OperatorType::kExchange;
  stats_.label = std::move(label);
  pipe_ = BuildProbePipeline(child_.get());
  BQO_CHECK_GT(config_.ResolvedThreads(), 1);
  fold_ = AggFold::Resolve(agg, child_->output_schema());
}

ExchangeOperator::~ExchangeOperator() {
  // Defensive: never leak running workers if Close() was skipped.
  Shutdown();
}

void ExchangeOperator::Open() {
  TimerGuard timer(&stats_);
  // Opening the child runs every hash-join build below (wide themselves
  // when their build pipelines parallelize) and resolves the scan's
  // pushed-down filters; only then can worker scratch be sized.
  child_->Open();
  pipe_.source->set_morsel_rows(static_cast<size_t>(config_.morsel_rows));

  const int num_workers = config_.ResolvedThreads();
  stats_.parallel_workers = num_workers;
  abort_ = false;
  partials_.assign(static_cast<size_t>(num_workers), PartialAggState{});
  workers_ = std::vector<PipelineWorkerState>(static_cast<size_t>(num_workers));
  for (auto& ws : workers_) InitPipelineWorker(pipe_, &ws);

  tasks_ = std::make_unique<WorkerPool::TaskGroup>(&WorkerPool::Global());
  for (int i = 0; i < num_workers; ++i) {
    tasks_->Spawn([this, i] { WorkerMain(i); });
  }
}

void ExchangeOperator::WorkerMain(int worker_index) {
  PipelineWorkerState& ws = workers_[static_cast<size_t>(worker_index)];
  PartialAggState& partial = partials_[static_cast<size_t>(worker_index)];
  QueryContext* ctx = query_context();
  Batch batch;
  // Per-batch stop points: an early teardown (abort_) or a cancelled query.
  // The scan's stride checks make the pipeline run dry on cancellation too;
  // this just exits a beat sooner.
  while (!abort_.load(std::memory_order_relaxed) && !CtxShouldStop(ctx)) {
    const int64_t start = ThreadCpuNanos();
    const bool produced = PipelineParallelNext(pipe_, &batch, &ws);
    if (produced) {
      // Fault hook at the fold: a fired fault cancels the whole query
      // first-error-wins, exactly as a real fold failure would surface.
      Status fault =
          FaultInjector::Global().Check(FaultInjector::Site::kExchangePush);
      if (!fault.ok() && ctx != nullptr) ctx->Cancel(std::move(fault));
      if (CtxShouldStop(ctx)) break;
      fold_.Fold(batch, &partial);
      batch.num_rows = 0;
    }
    // Whole-pipeline worker time, fold included, accumulates on the source
    // scan's counter, measured on the per-thread CPU clock so co-running
    // queries on a shared pool don't inflate it (see metrics.h).
    ws.scan.busy_ns += ThreadCpuNanos() - start;
    if (!produced) break;
  }
}

bool ExchangeOperator::Next(Batch* /*out*/) {
  BQO_CHECK_MSG(false, "exchange has no batch output; use DrainPartials()");
  return false;
}

std::vector<PartialAggState> ExchangeOperator::DrainPartials() {
  TimerGuard timer(&stats_);
  BQO_CHECK_MSG(tasks_ != nullptr, "DrainPartials once per Open");
  // Workers run to scan exhaustion on their own: await them without
  // raising abort_ (which could stop a worker between morsels and lose
  // folded rows). Wait() runs still-queued worker tasks on this thread if
  // the pool is busy, so the drain always progresses (worker_pool.h on
  // helping).
  tasks_->Wait();
  tasks_.reset();
  for (auto& ws : workers_) MergePipelineWorkerStats(pipe_, &ws);
  workers_.clear();

  std::vector<PartialAggState> out = std::move(partials_);
  partials_.clear();
  for (const PartialAggState& p : out) {
    // Per-worker agg counters, merged exactly once (metrics.h). The input
    // rows the fold consumed are this operator's throughput: reported as
    // rows in == rows out.
    stats_.agg_rows_folded += p.rows_folded;
    stats_.agg_partial_groups += static_cast<int64_t>(p.groups.size());
    stats_.rows_prefilter += p.rows_folded;
    stats_.rows_out += p.rows_folded;
  }
  return out;
}

void ExchangeOperator::Shutdown() {
  if (tasks_ == nullptr) return;
  abort_ = true;
  // Queued-but-unstarted worker tasks run (here, inline, or on the pool),
  // observe abort_, and exit immediately.
  tasks_->Wait();
  tasks_.reset();
  for (auto& ws : workers_) MergePipelineWorkerStats(pipe_, &ws);
  workers_.clear();
  partials_.clear();
}

void ExchangeOperator::Close() {
  Shutdown();
  child_->Close();
}

}  // namespace bqo
