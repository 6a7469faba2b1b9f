// QueryService: the concurrent query-serving front door.
//
// PRs 1-4 made a *single* query run as fast as the hardware allows; this
// layer turns that into sustained throughput under traffic. N client
// threads call Execute() concurrently; the service
//
//  1. **Admits** — at most `max_concurrent_queries` queries run at once
//     (the rest block FIFO-ish on a condition variable), and each admitted
//     query's logical worker count is clamped to `workers_per_query`, so
//     one heavy query cannot monopolize the shared WorkerPool. Because
//     every drain's Wait() helps (worker_pool.h), an admitted query always
//     has at least its own client thread running tasks — the share floor
//     is 1 even when the pool is saturated. Under overload the wait is
//     bounded two ways: at most `admission_queue_limit` queries wait at
//     once (excess requests are *shed* immediately with
//     kResourceExhausted), and a waiter whose deadline — or the service's
//     `admission_timeout_ms` — expires leaves with kDeadlineExceeded. A
//     cancelled waiter is woken promptly via a context cancel listener.
//  2. **Plans** — binds the QuerySpec to a JoinGraph (statistics
//     deferred), then consults the PlanCache under the query's canonical
//     *shape* signature (literals as slots, src/plan/predicate_shape.h).
//     A shape hit re-binds the query's constants into the cached plan,
//     re-estimating only the relations whose slots moved, and serves the
//     cached join order once one join ordering on the rebound graph
//     confirms it is still the optimizer's choice
//     (src/optimizer/parameterized.h) — skipping the rest of the
//     optimizer (amortizing the paper's Section 6.5 overhead). A miss — or
//     an escalation (a check that picked another plan) — attaches full
//     statistics and runs OptimizeParameterized against the shared
//     thread-safe StatsCatalog, caching (or replacing) the entry. That is
//     the one planning path: every query goes through the cache, and
//     entries are immutable once inserted.
//  3. **Executes** — ExecutePlan on the caller's thread under the query's
//     QueryContext (cancellation + deadline + first-error slot,
//     query_context.h); all pipeline parallelism inside flows through the
//     shared WorkerPool, so total engine threads stay bounded by the pool
//     size regardless of client count. A cancelled, deadline-expired, or
//     fault-struck query unwinds cooperatively in bounded time, releases
//     its admission slot, and leaves the pool serving its neighbors; its
//     first error surfaces in QueryResult::status and its partial metrics
//     must be treated as void.
//
// Results and merged stats are identical to a single-query threads==1 run
// of the same spec — admission, pooling, and caching are pure scheduling
// (pinned by tests/test_query_service.cc under TSan). Every request lands
// in exactly one ServingStats bucket (metrics.h) keyed by its final status.
//
// Executions also share completed hash-join build sides through a
// BuildCache with single-flight construction (src/server/build_cache.h):
// N concurrent queries needing the same build pay for it once and share
// the immutable result read-only, with per-query FilterStats and scan
// counters replayed as-if-built so every parity invariant above still
// holds bit-for-bit.
//
// Invalidation: InvalidateCache() (or any Catalog::version() bump observed
// at lookup) flushes cached plans and cached build sides. Statistics need
// no flush: distinct counts are memoized by the columns, and every append
// resets its column's memo (src/stats/table_stats.h). A data load must
// still not race with requests; call InvalidateCache after it. The flush
// excludes itself from in-flight planning via a shared mutex, so it is
// safe to call between/during requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/exec/executor.h"
#include "src/exec/query_context.h"
#include "src/obs/explain.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/optimizer/optimizer.h"
#include "src/server/build_cache.h"
#include "src/server/plan_cache.h"
#include "src/stats/table_stats.h"
#include "src/workload/query.h"

namespace bqo {

struct QueryServiceOptions {
  OptimizerOptions optimizer;
  /// Template for per-query execution: `agg` and `use_bitvectors` are
  /// overridden per query (from the spec / the optimizer mode), and
  /// `exec.threads` is clamped to the per-query worker share.
  ExecutionOptions execution;
  /// Queries allowed to run concurrently; 0 = the WorkerPool size.
  int max_concurrent_queries = 0;
  /// Logical workers per admitted query; 0 = pool size divided by
  /// max_concurrent_queries (at least 1), so at full admission the pool is
  /// exactly subscribed.
  int max_workers_per_query = 0;
  /// LRU capacity of the plan-shape cache, in shapes. Env overlay:
  /// BQO_PLAN_CACHE_CAP.
  size_t plan_cache_capacity = 64;
  /// Share completed hash-join build sides (table + bitvector filter)
  /// across queries through a BuildCache with single-flight construction
  /// (src/server/build_cache.h). Off = every query builds privately, the
  /// pre-existing behavior. Env overlay: BQO_BUILD_CACHE=off|0.
  bool use_build_cache = true;
  /// Memory bound of the build-side cache, in MiB; <= 0 keeps the cache
  /// (and its single-flight dedup) but makes nothing resident. Env
  /// overlay: BQO_BUILD_CACHE_MB.
  int64_t build_cache_mb = 64;

  // ---- Overload resilience (all off by default: unbounded queue, no
  // deadline — the permissive pre-existing behavior) ----

  /// Queries allowed to *wait* for admission at once; one more is shed
  /// with kResourceExhausted instead of queueing. < 0 = unbounded.
  /// Env overlay: BQO_ADMISSION_QUEUE (ApplyServingEnvOverrides below).
  int admission_queue_limit = -1;
  /// Cap on any query's admission wait, even without a deadline; a waiter
  /// that exceeds it leaves with kDeadlineExceeded. 0 = wait forever
  /// (modulo the query's own deadline, which always bounds the wait).
  int64_t admission_timeout_ms = 0;
  /// Deadline stamped on queries whose context has none (covering
  /// admission wait + execution). 0 = none. Env overlay: BQO_DEADLINE_MS.
  int64_t default_deadline_ms = 0;
  /// Test seam: runs on the client thread right after admission, before
  /// planning — deterministic overload/cancellation tests park admitted
  /// queries here to force a full house without timing races.
  std::function<void()> post_admit_hook;

  // ---- Observability (src/obs) ----

  /// Collect a per-query trace span tree (QueryTrace, handed back in
  /// QueryResult::trace). Spans are per *phase*, never per batch, so the
  /// cost is a handful of clock reads per query; turn off to shave the
  /// last percent at peak qps. Env overlay: BQO_TRACE=off|0.
  bool collect_traces = true;
  /// Build the EXPLAIN ANALYZE estimate-vs-actual report for OK queries
  /// (QueryResult::explain). Off by default: it re-runs the estimated cost
  /// model per query to recover the optimizer's per-node cardinalities.
  bool explain_analyze = false;
  /// Log queries whose wall time (admission wait included) reaches this
  /// many ms to slow_query_sink. -1 = off; 0 = log every finished query
  /// (the deterministic setting tests use). Env overlay: BQO_SLOW_QUERY_MS.
  int64_t slow_query_ms = -1;
  /// Slow-query destination; default writes the report to stderr. The
  /// report carries the query's one-line outcome plus its span tree.
  std::function<void(const std::string&)> slow_query_sink;
};

/// \brief Overlay the serving env knobs (BQO_DEADLINE_MS,
/// BQO_ADMISSION_QUEUE, BQO_PLAN_CACHE_CAP, BQO_BUILD_CACHE,
/// BQO_BUILD_CACHE_MB, BQO_TRACE, BQO_SLOW_QUERY_MS) onto `options` — how
/// bench binaries plumb them in; the library itself never reads the
/// environment. A numeric knob whose value is not a whole integer
/// (ParseInt64: "off", "unbounded", "12ms") keeps the default.
QueryServiceOptions ApplyServingEnvOverrides(QueryServiceOptions options);

/// \brief One served query's outcome (the concurrent analogue of
/// runner.h's QueryRun, plus serving-layer fields).
struct QueryResult {
  std::string query_name;
  /// OK = `metrics` holds a complete, correct result. Non-OK — kCancelled,
  /// kDeadlineExceeded, kResourceExhausted (shed before running), or the
  /// first internal error (e.g. an injected fault) — means the query was
  /// unwound and every other field is partial or default: void.
  Status status;
  QueryMetrics metrics;
  double estimated_cost = 0;
  /// Optimization wall time on a plan-cache miss or escalation
  /// (OptimizedQuery::optimize_ns), 0 on a hit (a matched verification
  /// counts as a hit: nothing was optimized).
  int64_t optimize_ns = 0;
  int num_joins = 0;
  int pruned_filters = 0;
  bool used_bitvectors = false;
  bool plan_cache_hit = false;
  /// This query's plan was a shape hit with >= 1 constant slot re-bound
  /// (false on an exact-constant hit, a miss, or a re-optimization).
  bool plan_rebound = false;
  /// The query's sealed trace (options.collect_traces only). A non-OK
  /// query's trace is still well-formed — its open spans are closed as
  /// truncated and the final status is recorded.
  std::shared_ptr<const QueryTrace> trace;
  /// EXPLAIN ANALYZE report (options.explain_analyze, OK queries only):
  /// per-operator est-vs-actual rows and per-filter est/observed lambda +
  /// modeled/measured FPR (src/obs/explain.h).
  std::shared_ptr<const ExplainReport> explain;
};

class QueryService {
 public:
  /// \brief Serve queries against `catalog` (borrowed; must outlive the
  /// service). Admission limits resolve against the global WorkerPool size
  /// at construction.
  QueryService(const Catalog* catalog, QueryServiceOptions options);

  /// \brief Optimize (or fetch from cache) and execute `spec`. Safe to
  /// call from any number of client threads; blocks while the service is
  /// at max_concurrent_queries (bounded by the admission queue limit,
  /// admission timeout, and the query's deadline — see the header comment).
  ///
  /// `ctx` (optional, borrowed for the duration of the call) lets the
  /// client cancel the query or set its own deadline; null runs under a
  /// private context. If neither carries a deadline,
  /// options.default_deadline_ms (when set) is stamped on. The outcome —
  /// including cancellation and shedding — is QueryResult::status; Execute
  /// itself never blocks indefinitely on an overloaded service once a
  /// bound is configured.
  QueryResult Execute(const QuerySpec& spec, QueryContext* ctx = nullptr);

  /// \brief Drop cached plans and cached statistics (call after mutating
  /// table data; DDL is caught automatically via Catalog::version()).
  void InvalidateCache();

  PlanCacheStats cache_stats() const { return cache_.stats(); }
  /// \brief Build-side cache counters; zeros when the cache is disabled.
  BuildCacheStats build_cache_stats() const {
    return build_cache_ != nullptr ? build_cache_->stats()
                                   : BuildCacheStats{};
  }

  int max_concurrent() const { return max_concurrent_; }
  int workers_per_query() const { return workers_per_query_; }
  /// \brief High-water mark of concurrently admitted queries (tests pin
  /// the admission bound with this).
  int peak_concurrent() const;
  /// \brief Queries completed with an OK status (== serving_stats().served).
  int64_t queries_served() const;
  /// \brief Per-outcome request counters (see metrics.h). Assembled from
  /// the registry's atomic counters, so mid-run reads from monitor threads
  /// are exact per field — no torn loads, no lock against the serving path.
  ServingStats serving_stats() const;

  enum class MetricsFormat { kJsonLines, kPrometheus };
  /// \brief Export every engine metric: the serving outcome counters,
  /// latency histograms, plan- and build-cache counters and admission
  /// gauges all live in the registry, written where they change; one
  /// snapshot renders in the requested format. Safe to call from
  /// a monitor thread while queries run.
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kJsonLines)
      const;
  /// \brief This service's metric registry (per-instance, so concurrently
  /// constructed services in tests never mix counters).
  const MetricsRegistry& metrics_registry() const { return registry_; }

 private:
  /// Admit under `ctx`'s deadline/cancellation and the service's queue
  /// bound + wait timeout. OK = a slot is held (pair with Release);
  /// non-OK = the request never ran and the status says why.
  Status Admit(QueryContext* ctx);
  void Release();
  /// Copy active_/waiting_/peak_ into their gauges; admit_mu_ held.
  void SetAdmissionGauges();
  /// Tally `status` into the outcome counters; call exactly once per
  /// Execute(). Lock-free (one relaxed counter add).
  void RecordOutcome(const Status& status);
  /// Register the serving counters/histograms/gauges and cache their
  /// stable pointers (ctor only).
  void RegisterMetrics();
  /// Seal the trace, attach it (and the slow-query report) to `result`,
  /// and record the latency histogram. Call exactly once per Execute(),
  /// after the outcome status is final.
  void FinishQuery(QueryResult* result, QueryContext* ctx, int query_span,
                   std::chrono::steady_clock::time_point started);

  const Catalog* catalog_;
  QueryServiceOptions options_;
  int max_concurrent_ = 1;
  int workers_per_query_ = 1;

  /// Engine metrics (src/obs/metrics_registry.h). The serving outcome
  /// tallies live here as atomic counters — RecordOutcome is lock-free and
  /// serving_stats() reads are exact per field — and so do the plan and
  /// build caches' (declared first: both register into it). Pointers below
  /// are cached at construction (stable for the registry's lifetime).
  MetricsRegistry registry_;

  StatsCatalog stats_;
  PlanCache cache_;
  /// Cross-query build-side cache; null when options_.use_build_cache is
  /// false. Handed to every execution together with the catalog version
  /// its plan was bound under.
  std::unique_ptr<BuildCache> build_cache_;
  /// Readers = in-flight planning (plan-cache lookup, optimization and
  /// insert under one catalog-version snapshot), writer = InvalidateCache:
  /// a flush between a query's lookup and its insert would leave a plan of
  /// the old data cached after the flush.
  std::shared_mutex optimize_mu_;

  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int active_ = 0;
  int peak_ = 0;
  int waiting_ = 0;  ///< queued for admission (the shed bound's subject)

  Counter* served_total_ = nullptr;
  Counter* shed_total_ = nullptr;
  Counter* timed_out_total_ = nullptr;
  Counter* cancelled_total_ = nullptr;
  Counter* failed_total_ = nullptr;
  Counter* slow_queries_total_ = nullptr;
  Histogram* query_latency_ms_ = nullptr;
  Histogram* admission_wait_ms_ = nullptr;
  /// active_, waiting_ and peak_, written under admit_mu_ wherever they
  /// change (SetAdmissionGauges).
  Gauge* admission_gauges_[3] = {};
};

}  // namespace bqo
