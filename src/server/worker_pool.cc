#include "src/server/worker_pool.h"

#include <algorithm>
#include <memory>

#include "src/common/macros.h"
#include "src/common/string_util.h"
#include "src/common/thread_clock.h"
#include "src/exec/exec_config.h"

namespace bqo {

namespace {

/// CPU time this thread has spent running tasks inline via Wait() helping;
/// see WorkerPool::InlineTaskCpuNanos.
thread_local int64_t tls_inline_task_cpu_ns = 0;

std::mutex g_global_mu;
std::unique_ptr<WorkerPool> g_global_pool;

}  // namespace

int PoolThreadsFromEnv() {
  if (const auto p = EnvInt64("BQO_POOL_THREADS"); p && *p > 0) {
    return static_cast<int>(std::min<int64_t>(*p, kMaxEnvThreads));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

WorkerPool::WorkerPool(int num_threads) {
  const int n = std::max(1, num_threads);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back(&WorkerPool::WorkerLoop, this);
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    has_work_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  // Live TaskGroups wait in their destructors, so an orphaned task here
  // means a group outlived its pool — a structural bug.
  BQO_CHECK_MSG(queue_.empty(), "WorkerPool destroyed with queued tasks");
}

void WorkerPool::RunTask(Task task, std::unique_lock<std::mutex>* lock,
                         bool count_inline_cpu) {
  lock->unlock();
  const int64_t start = count_inline_cpu ? ThreadCpuNanos() : 0;
  task.fn();
  if (count_inline_cpu) tls_inline_task_cpu_ns += ThreadCpuNanos() - start;
  lock->lock();
  if (--task.group->pending_ == 0) task_done_.notify_all();
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    has_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to run
    Task task = std::move(queue_.front());
    queue_.pop_front();
    RunTask(std::move(task), &lock, /*count_inline_cpu=*/false);
  }
}

void WorkerPool::TaskGroup::Spawn(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(pool_->mu_);
  ++pending_;
  pool_->queue_.push_back(Task{this, std::move(fn)});
  pool_->has_work_.notify_one();
}

void WorkerPool::TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(pool_->mu_);
  while (pending_ > 0) {
    // Help: run this group's queued tasks on the waiting thread, so the
    // group finishes even when every pool worker is busy elsewhere.
    auto it = std::find_if(pool_->queue_.begin(), pool_->queue_.end(),
                           [this](const Task& t) { return t.group == this; });
    if (it != pool_->queue_.end()) {
      Task task = std::move(*it);
      pool_->queue_.erase(it);
      pool_->RunTask(std::move(task), &lock, /*count_inline_cpu=*/true);
      continue;
    }
    pool_->task_done_.wait(lock);
  }
}

WorkerPool& WorkerPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    g_global_pool = std::make_unique<WorkerPool>(PoolThreadsFromEnv());
  }
  return *g_global_pool;
}

void WorkerPool::ResetGlobal(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_pool =
      num_threads > 0 ? std::make_unique<WorkerPool>(num_threads) : nullptr;
}

int64_t WorkerPool::InlineTaskCpuNanos() { return tls_inline_task_cpu_ns; }

}  // namespace bqo
