// Execution-engine configuration: the knobs of the pipeline driver
// (src/exec/pipeline.h), which runs every plan at every thread count.
//
// Threading model: whole pipelines go wide. A scan's table is split into
// fixed-size, word-aligned row ranges (morsels) claimed off an atomic
// cursor; each worker decodes its morsel's selected rows and runs the full
// hash -> MayContainBatch -> gather -> join-probe chain thread-locally.
// Hash-join builds drain their build pipeline with N workers reassembled
// in canonical order, and the top pipeline's workers fold straight into
// per-worker partial aggregates that the aggregate merges. One worker is
// the same loop run inline, over one whole-table morsel. Bitvector filters
// and join tables are read-only once built, so probing needs no locks; the
// mutable counters (FilterStats, OperatorStats) are accumulated per worker
// and merged once so observed-selectivity numbers stay exact (metrics.h).
//
// Two distinct quantities control parallelism (see src/server/worker_pool.h
// and docs/ARCHITECTURE.md "Serving layer"):
//
//  * `threads` — per-query logical workers: how many worker *states* a
//    query's drains are decomposed into. Results and merged stats are
//    invariant in it (one plan at every thread count).
//  * the WorkerPool size — process-wide OS threads that actually run those
//    workers' tasks, sized once at first use from BQO_POOL_THREADS
//    (PoolThreadsFromEnv, worker_pool.h). Results are invariant in it too;
//    it only caps how much of the machine the engine uses across *all*
//    concurrently running queries.
#pragma once

#include <algorithm>
#include <climits>
#include <thread>

#include "src/common/string_util.h"

namespace bqo {

/// Ceiling on a thread count read from the environment: a typo such as
/// BQO_POOL_THREADS=40000 must not make WorkerPool::Global start 40000 OS
/// threads.
inline constexpr int kMaxEnvThreads = 256;

struct ExecConfig {
  /// Pipeline workers. 1 = one worker, run inline on the calling thread
  /// over a whole-table morsel (no pool task). 0 = one worker per hardware
  /// thread. >1 = that many workers per pipeline (build drains and the
  /// aggregate's top pipeline alike). These are *logical* workers — their
  /// tasks run on the shared WorkerPool (src/server/worker_pool.h).
  int threads = 1;

  /// Table rows a scan worker claims per atomic cursor bump, rounded up to
  /// whole 64-row selection words. Large enough to amortize the claim,
  /// small enough that workers finish within a few morsels of each other
  /// at the tail.
  int morsel_rows = 16384;

  int ResolvedThreads() const {
    int n = threads;
    if (n == 0) n = static_cast<int>(std::thread::hardware_concurrency());
    return n < 1 ? 1 : n;
  }
};

/// \brief ExecConfig from the environment (BQO_THREADS, BQO_MORSEL_ROWS) —
/// how the bench binaries and examples plumb the knobs in. The knob
/// table lives in README.md's quickstart section. A value that is not a
/// whole integer in the knob's range keeps the default; thread counts are
/// capped at kMaxEnvThreads.
inline ExecConfig ExecConfigFromEnv() {
  ExecConfig config;
  if (const auto t = EnvInt64("BQO_THREADS"); t && *t >= 0) {
    config.threads = static_cast<int>(std::min<int64_t>(*t, kMaxEnvThreads));
  }
  if (const auto m = EnvInt64("BQO_MORSEL_ROWS");
      m && *m > 0 && *m <= INT_MAX) {
    config.morsel_rows = static_cast<int>(*m);
  }
  return config;
}

}  // namespace bqo
