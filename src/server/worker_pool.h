// Shared worker pool: the engine-wide task substrate for pipeline-parallel
// execution and (via QueryService) concurrent query serving.
//
// Before this layer existed, every parallel drain spawned and joined fresh
// std::threads per query — per hash-join build, per filter fill, per
// top-of-plan drain. Under one query at a time that only costs spawn latency; under
// concurrent serving it oversubscribes the machine (Q queries x N workers
// threads) and gives the OS scheduler, not the engine, control over who
// runs. The WorkerPool replaces all of those spawn sites: a fixed set of
// persistent workers (sized once, from BQO_POOL_THREADS; see
// PoolThreadsFromEnv) pulls tasks off one shared FIFO queue, so total engine
// parallelism is capped at the pool size no matter how many queries are in
// flight.
//
// == Tasks and TaskGroups ==
//
// Work is submitted through a TaskGroup: Spawn() enqueues a task, Wait()
// blocks until every task of the group has finished. The drain sites (the
// pipeline driver's multi-worker runs and FillFilterParallel, both in
// src/exec/pipeline.cc) spawn one closure per logical worker, each owning
// its private worker state, so the per-worker-accumulate / merge-once
// stats discipline and the canonical morsel-order reassembly hold. Because every closure claims work
// off a shared cursor (or owns a fixed partition), any subset of them
// completes the drain: the pool size changes only *which* OS threads run
// the closures and how many run at once, never the result. That is the
// pool-size-invariance contract, pinned by tests/test_query_service.cc.
//
// == Helping (per-query progress guarantee) ==
//
// Wait() does not just block: while its group has queued-but-unstarted
// tasks, the waiting thread pops and runs them itself. Two consequences:
//
//  * No deadlock and no priority inversion for group-awaited drains: a
//    query whose tasks are stuck behind other queries' tasks in the queue
//    executes them on its own client thread — so for every drain (build
//    drains, filter fills, top pipelines: each ends in Wait()) an admitted
//    query always has at least one thread (its own) making progress.
//  * A pool of size 1 still runs every multi-worker drain correctly (the
//    driver helps), which is what single-hardware-thread CI containers do.
//
// Tasks must therefore never block on other tasks *of the same group*
// starting later (the engine's drain closures never do: they run to
// cursor/partition exhaustion independently).
//
// Thread-safety: all members are guarded by one mutex; task completion
// happens-before Wait() returning, so the waiter may read worker states
// written by the tasks without further synchronization.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bqo {

/// \brief OS worker threads for WorkerPool::Global: BQO_POOL_THREADS when
/// it is a whole positive integer (capped at kMaxEnvThreads, exec_config.h),
/// otherwise one per hardware thread; at least 1. Reads the environment
/// only; constructs nothing.
int PoolThreadsFromEnv();

class WorkerPool {
 public:
  /// \brief Spawns `num_threads` persistent workers (clamped to >= 1).
  explicit WorkerPool(int num_threads);
  /// \brief Drains the queue and joins the workers. Every TaskGroup must
  /// have been waited (their destructors do) before the pool dies.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// \brief A batch of tasks whose completion can be awaited. Not
  /// thread-safe per instance (one owner spawns and waits); different
  /// groups submit to the same pool concurrently.
  class TaskGroup {
   public:
    explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}
    ~TaskGroup() { Wait(); }
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// \brief Enqueue `fn` on the pool.
    void Spawn(std::function<void()> fn);

    /// \brief Block until every spawned task has finished, running this
    /// group's queued tasks on the calling thread while it waits (see
    /// header comment on helping).
    void Wait();

   private:
    friend class WorkerPool;
    WorkerPool* pool_;
    int pending_ = 0;  ///< spawned but not finished; guarded by pool_->mu_
  };

  /// \brief The process-wide pool every drain site submits to. Created on
  /// first use, sized once from PoolThreadsFromEnv(); tests and embedders
  /// that need an explicit size call ResetGlobal before the first drain.
  static WorkerPool& Global();

  /// \brief Tests/benches: replace the global pool with one of
  /// `num_threads` workers (0 = drop it; the next Global() re-creates from
  /// the environment). Must not be called with tasks in flight.
  static void ResetGlobal(int num_threads);

  /// \brief Thread CPU nanoseconds this thread has spent running tasks
  /// inline inside TaskGroup::Wait() (helping). ExecutePlan subtracts the
  /// delta from its driver-thread CPU so helped task time — already
  /// reported by the tasks themselves — is not counted twice.
  static int64_t InlineTaskCpuNanos();

 private:
  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void WorkerLoop();
  /// Run `task` (unlocked), then decrement its group's pending count and
  /// wake waiters. `lock` must be held on entry and is held again on exit.
  void RunTask(Task task, std::unique_lock<std::mutex>* lock,
               bool count_inline_cpu);

  std::mutex mu_;
  std::condition_variable has_work_;   ///< workers: queue non-empty / stop
  std::condition_variable task_done_;  ///< TaskGroup::Wait: a task finished
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace bqo
