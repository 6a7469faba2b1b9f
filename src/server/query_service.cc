#include "src/server/query_service.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/fault_injector.h"
#include "src/common/string_util.h"
#include "src/server/worker_pool.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

QueryServiceOptions ApplyServingEnvOverrides(QueryServiceOptions options) {
  // A value that does not parse as a whole integer ("off", "unbounded")
  // keeps the default.
  if (const auto ms = EnvInt64("BQO_DEADLINE_MS"); ms && *ms > 0) {
    options.default_deadline_ms = *ms;
  }
  if (const auto q = EnvInt64("BQO_ADMISSION_QUEUE");
      q && *q >= INT_MIN && *q <= INT_MAX) {
    // "0" is meaningful: no waiting at all — run-or-shed admission.
    options.admission_queue_limit = static_cast<int>(*q);
  }
  if (const auto cap = EnvInt64("BQO_PLAN_CACHE_CAP"); cap && *cap > 0) {
    options.plan_cache_capacity = static_cast<size_t>(*cap);
  }
  if (const char* bc = std::getenv("BQO_BUILD_CACHE")) {
    const std::string v(bc);
    if (v == "off" || v == "0") options.use_build_cache = false;
  }
  if (const auto mb = EnvInt64("BQO_BUILD_CACHE_MB");
      mb && *mb > 0 && *mb <= (INT64_MAX >> 20)) {  // MiB -> bytes fits
    options.build_cache_mb = *mb;
  }
  if (const char* t = std::getenv("BQO_TRACE")) {
    const std::string v(t);
    if (v == "off" || v == "0") options.collect_traces = false;
  }
  if (const auto s = EnvInt64("BQO_SLOW_QUERY_MS")) {
    // 0 is meaningful: log every finished query.
    options.slow_query_ms = *s;
  }
  return options;
}

QueryService::QueryService(const Catalog* catalog, QueryServiceOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      stats_(catalog),
      cache_(options_.plan_cache_capacity, &registry_) {
  if (options_.use_build_cache) {
    BuildCacheOptions bc;
    bc.max_bytes = options_.build_cache_mb << 20;
    build_cache_ = std::make_unique<BuildCache>(bc, &registry_);
  }
  const int pool = WorkerPool::Global().num_threads();
  max_concurrent_ = options_.max_concurrent_queries > 0
                        ? options_.max_concurrent_queries
                        : std::max(1, pool);
  // Default share: at full admission the pool is exactly subscribed
  // (max_concurrent * workers_per_query ~= pool). Helping guarantees every
  // admitted query >= 1 running thread regardless.
  workers_per_query_ = options_.max_workers_per_query > 0
                           ? options_.max_workers_per_query
                           : std::max(1, pool / max_concurrent_);
  RegisterMetrics();
}

void QueryService::RegisterMetrics() {
  served_total_ = registry_.GetCounter("bqo_serving_served_total");
  shed_total_ = registry_.GetCounter("bqo_serving_shed_total");
  timed_out_total_ = registry_.GetCounter("bqo_serving_timed_out_total");
  cancelled_total_ = registry_.GetCounter("bqo_serving_cancelled_total");
  failed_total_ = registry_.GetCounter("bqo_serving_failed_total");
  slow_queries_total_ =
      registry_.GetCounter("bqo_serving_slow_queries_total");
  query_latency_ms_ = registry_.GetHistogram("bqo_query_latency_ms");
  admission_wait_ms_ = registry_.GetHistogram("bqo_admission_wait_ms");
  static const char* kAdmissionNames[3] = {"bqo_admission_active",
                                           "bqo_admission_waiting",
                                           "bqo_admission_peak"};
  for (int i = 0; i < 3; ++i) {
    admission_gauges_[i] = registry_.GetGauge(kAdmissionNames[i]);
  }
}

Status QueryService::Admit(QueryContext* ctx) {
  // A waiter parked on admit_cv_ is woken promptly on cancellation via a
  // context listener. Registered outside admit_mu_ (Cancel holds the
  // context mutex and the listener takes admit_mu_ — query_context.h's
  // lock-ordering contract), and inside the wait loop only the flag-only
  // IsCancelled() is consulted, never ctx->status().
  const int64_t listener = ctx->AddCancelListener([this] {
    std::lock_guard<std::mutex> lock(admit_mu_);
    admit_cv_.notify_all();
  });

  // The admission wait is bounded by the query deadline and, independently,
  // by the service's admission timeout (whichever is sooner).
  bool bounded_wait = ctx->has_deadline();
  auto wait_deadline = bounded_wait
                           ? ctx->deadline()
                           : std::chrono::steady_clock::time_point::max();
  if (options_.admission_timeout_ms > 0) {
    const auto cap = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.admission_timeout_ms);
    wait_deadline = bounded_wait ? std::min(wait_deadline, cap) : cap;
    bounded_wait = true;
  }

  enum class Outcome { kAdmitted, kShed, kTimedOut, kCancelled };
  Outcome outcome;
  {
    std::unique_lock<std::mutex> lock(admit_mu_);
    if (active_ < max_concurrent_ && !ctx->IsCancelled()) {
      outcome = Outcome::kAdmitted;
    } else if (ctx->IsCancelled()) {
      outcome = Outcome::kCancelled;
    } else if (options_.admission_queue_limit >= 0 &&
               waiting_ >= options_.admission_queue_limit) {
      // Load shed: the house and the queue are both full. Rejecting now
      // (rather than queueing unboundedly) keeps the wait of the queries
      // we do accept bounded — the clients that are told "no" can back
      // off instead of timing out after burning a slot in line.
      outcome = Outcome::kShed;
    } else {
      ++waiting_;
      SetAdmissionGauges();
      for (;;) {
        if (ctx->IsCancelled()) {
          outcome = Outcome::kCancelled;
          break;
        }
        if (active_ < max_concurrent_) {
          outcome = Outcome::kAdmitted;
          break;
        }
        if (bounded_wait) {
          if (std::chrono::steady_clock::now() >= wait_deadline) {
            outcome = Outcome::kTimedOut;
            break;
          }
          admit_cv_.wait_until(lock, wait_deadline);
        } else {
          admit_cv_.wait(lock);
        }
      }
      --waiting_;
    }
    if (outcome == Outcome::kAdmitted) {
      ++active_;
      peak_ = std::max(peak_, active_);
    }
    SetAdmissionGauges();
  }
  ctx->RemoveCancelListener(listener);  // outside admit_mu_; see above

  switch (outcome) {
    case Outcome::kAdmitted:
      return Status::OK();
    case Outcome::kShed:
      return Status::ResourceExhausted("admission queue full: load shed");
    case Outcome::kTimedOut:
      // Whether the query's own deadline or the service's admission
      // timeout fired, the query is over either way: cancel it so any
      // client-side observers see the same first error we return.
      ctx->ShouldStop();  // self-cancel if the query deadline passed
      ctx->Cancel(Status::DeadlineExceeded("admission wait timed out"));
      return ctx->status();
    case Outcome::kCancelled:
      return ctx->status();
  }
  return Status::Internal("unreachable");
}

void QueryService::Release() {
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --active_;
    SetAdmissionGauges();
  }
  // notify_all, not notify_one: with deadlines and cancellation a wake can
  // land on a waiter that is about to give up, and a lost wakeup would
  // strand the rest of the queue until the next release.
  admit_cv_.notify_all();
}

void QueryService::RecordOutcome(const Status& status) {
  if (status.ok()) {
    served_total_->Increment();
  } else if (status.IsResourceExhausted()) {
    shed_total_->Increment();
  } else if (status.IsDeadlineExceeded()) {
    timed_out_total_->Increment();
  } else if (status.IsCancelled()) {
    cancelled_total_->Increment();
  } else {
    failed_total_->Increment();
  }
}

QueryResult QueryService::Execute(const QuerySpec& spec,
                                  QueryContext* caller_ctx) {
  // Every query runs under a context; the client's (cancellable from
  // outside) or a private one. The service's default deadline applies only
  // when the client didn't set a tighter one of their own.
  QueryContext private_ctx;
  QueryContext* ctx = caller_ctx != nullptr ? caller_ctx : &private_ctx;
  if (!ctx->has_deadline() && options_.default_deadline_ms > 0) {
    ctx->SetDeadlineAfterMs(options_.default_deadline_ms);
  }

  QueryResult result;
  result.query_name = spec.name;
  result.num_joins = spec.num_joins();

  // Tracing: the context owns the trace for the duration of the call so
  // every layer below (plan cache, executor, hash-join builds) reaches it
  // through the one shared handle they already hold.
  const auto started = std::chrono::steady_clock::now();
  QueryTrace* trace = nullptr;
  if (options_.collect_traces) {
    ctx->AttachTrace(std::make_unique<QueryTrace>());
    trace = ctx->trace();
  }
  const int query_span =
      trace != nullptr ? trace->BeginSpan(SpanKind::kQuery, spec.name) : -1;

  Status admitted;
  {
    ScopedSpan admit_span(trace, SpanKind::kAdmissionWait, "admit");
    admitted = Admit(ctx);
  }
  admission_wait_ms_->Observe(
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started)
              .count()) /
      1e6);
  if (!admitted.ok()) {
    // Shed, timed out in line, or cancelled while waiting: never ran, no
    // slot to release.
    result.status = admitted;
    RecordOutcome(result.status);
    FinishQuery(&result, ctx, query_span, started);
    return result;
  }
  if (options_.post_admit_hook) options_.post_admit_hook();

  // Per-query execution options: the spec's aggregate, bitvector use per
  // the optimizer mode, the worker share clamp, and the query's context.
  // A share of 1 compiles the exact single-threaded plan — no pool tasks
  // at all.
  ExecutionOptions exec = options_.execution;
  exec.agg = spec.agg;
  exec.use_bitvectors = options_.optimizer.mode != OptimizerMode::kNoBitvectors;
  exec.exec.threads =
      std::min(exec.exec.ResolvedThreads(), workers_per_query_);
  exec.context = ctx;

  // Fault hook at the planning surface: fails the query after admission
  // but before any optimizer or execution state exists (the earliest
  // post-admission failure a real serving stack sees).
  {
    Status fault =
        FaultInjector::Global().Check(FaultInjector::Site::kPlanCacheLookup);
    if (!fault.ok()) ctx->Cancel(std::move(fault));
  }

  // ShouldStop rather than IsCancelled: a deadline that expired during the
  // admission wait must stop the query here, before planning.
  // `entry` outlives the block: execution runs outside the optimize lock,
  // and the EXPLAIN ANALYZE report below re-costs the executed plan after
  // the outcome is final. It stays null when planning never ran or the
  // spec failed to bind.
  std::shared_ptr<const CachedPlan> entry;
  int64_t planned_version = 0;
  if (!ctx->ShouldStop()) {
    // Shared lock: many queries plan concurrently; InvalidateCache takes
    // it exclusive, so a flush never lands between a query's lookup and
    // its insert (which would re-insert a plan of the old data after the
    // flush).
    std::shared_lock<std::shared_mutex> lock(optimize_mu_);
    // One version snapshot spans plan-cache lookup, optimization,
    // insert, *and* execution: the build cache keys shared build sides
    // under the version this plan was bound to, so a concurrent catalog
    // bump can never pair a new-version build with an old-version plan
    // (or vice versa).
    planned_version = catalog_->version();
    // Statistics are deferred: a shape hit re-estimates only the
    // relations whose constants moved (inside Lookup); the miss and
    // escalation paths attach the full statistics below, before
    // optimizing.
    auto graph_result =
        BuildJoinGraph(*catalog_, spec, /*attach_statistics=*/false);
    if (!graph_result.ok()) {
      // A spec that does not bind (unknown table or alias, malformed
      // predicate) fails its own query, never the service.
      ctx->Cancel(graph_result.status());
    } else {
      JoinGraph& graph = graph_result.value();
      const std::string signature =
          PlanCache::ShapeSignature(graph, options_.optimizer);
      // The snapshot above also covers lookup and insert: if the catalog
      // moves on concurrently, the insert must carry the version this
      // plan was optimized under (the cache then drops it at the next
      // lookup) — re-reading here would stamp a stale plan with the new
      // version and serve it forever.
      ScopedSpan lookup_span(trace, SpanKind::kPlanCacheLookup, "lookup");
      PlanCache::LookupOutcome looked = cache_.Lookup(
          signature, planned_version, graph, &stats_, options_.optimizer,
          trace);
      lookup_span.End();
      if (looked.kind == PlanCache::LookupOutcome::Kind::kServed) {
        result.plan_cache_hit = true;
        result.plan_rebound = looked.rebound;
        entry = std::move(looked.instance);
      } else {
        // Miss — or an escalation (a verification that picked another
        // plan), where Insert replaces the refused entry.
        ScopedSpan optimize_span(trace, SpanKind::kOptimize, "optimize");
        AttachStatistics(&graph);
        ParameterizedPlan optimized =
            OptimizeParameterized(graph, &stats_, options_.optimizer);
        optimize_span.End();
        result.optimize_ns = optimized.optimized.optimize_ns;
        entry = cache_.Insert(signature, planned_version, std::move(graph),
                              std::move(optimized));
      }
    }
  }
  if (entry != nullptr) {
    result.estimated_cost = entry->estimated_cost;
    result.pruned_filters = entry->pruned_filters;

    // Execution is outside the optimize lock: cached plans are read-only
    // (fresh operator tree + FilterRuntime per run) and entry's shared_ptr
    // keeps the plan alive across any concurrent invalidation. Shared
    // build sides ride under the version the plan was bound to.
    exec.build_cache = build_cache_.get();
    exec.catalog_version = planned_version;
    result.metrics = ExecutePlan(entry->plan, exec);
    for (const FilterStats& fs : result.metrics.filters) {
      if (fs.created && fs.probed > 0) result.used_bitvectors = true;
    }
  }

  // The query's outcome is its context's first error — OK for a clean run,
  // else whatever cancelled it (client cancel, deadline, injected fault).
  // The admission slot is released unconditionally: a cancelled query must
  // never leak capacity.
  result.status = ctx->status();
  Release();
  RecordOutcome(result.status);
  FinishQuery(&result, ctx, query_span, started);

  // EXPLAIN ANALYZE: recover the optimizer's per-node cardinality
  // estimates for the executed plan and join them with the executed
  // metrics and the sealed trace. OK queries only: a cancelled query's
  // counters are void by contract.
  if (options_.explain_analyze && result.status.ok() && entry != nullptr) {
    CoutBreakdown estimates =
        EstimatedCoutModel(&stats_, options_.optimizer.filter_fp_rate)
            .Compute(entry->plan);
    auto report = std::make_shared<ExplainReport>(
        BuildExplainReport(entry->plan, result.metrics, estimates,
                           exec.filter_config, result.trace.get()));
    report->query_name = spec.name;
    result.explain = std::move(report);
  }
  return result;
}

void QueryService::FinishQuery(
    QueryResult* result, QueryContext* ctx, int query_span,
    std::chrono::steady_clock::time_point started) {
  const double total_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started)
              .count()) /
      1e6;
  query_latency_ms_->Observe(total_ms);

  QueryTrace* trace = ctx->trace();
  if (trace != nullptr) {
    // A clean query closes its root span; a failed one leaves it (and
    // anything the unwind skipped) open for Seal to mark truncated — the
    // trace records how far the query got either way.
    if (result->status.ok() && query_span >= 0) trace->EndSpan(query_span);
    trace->Seal(result->status.ok(), result->status.ToString());
    result->trace = std::shared_ptr<const QueryTrace>(ctx->DetachTrace());
  }

  if (options_.slow_query_ms >= 0 &&
      total_ms >= static_cast<double>(options_.slow_query_ms)) {
    slow_queries_total_->Increment();
    std::string report = StringFormat(
        "[slow query] %s: status %s, wall %.3f ms, cpu %.3f ms, "
        "rows %lld%s%s\n",
        result->query_name.c_str(), result->status.ToString().c_str(),
        total_ms, static_cast<double>(result->metrics.cpu_ns) / 1e6,
        static_cast<long long>(result->metrics.result_rows),
        result->plan_cache_hit ? ", plan cache hit" : "",
        result->plan_rebound ? " (rebound)" : "");
    if (result->trace != nullptr) {
      report += RenderSpans(result->trace->spans());
    }
    if (options_.slow_query_sink) {
      options_.slow_query_sink(report);
    } else {
      std::fprintf(stderr, "%s", report.c_str());
    }
  }
}

void QueryService::SetAdmissionGauges() {
  admission_gauges_[0]->Set(active_);
  admission_gauges_[1]->Set(waiting_);
  admission_gauges_[2]->Set(peak_);
}

std::string QueryService::DumpMetrics(MetricsFormat format) const {
  // One snapshot of the registry: the caches and admission write their
  // metrics where they change. Each metric reads atomically, so a mid-run
  // dump never sees a torn value.
  const std::vector<MetricSnapshot> snapshot = registry_.Snapshot();
  return format == MetricsFormat::kPrometheus
             ? MetricsRegistry::ToPrometheusText(snapshot)
             : MetricsRegistry::ToJsonLines(snapshot);
}

void QueryService::InvalidateCache() {
  std::unique_lock<std::shared_mutex> lock(optimize_mu_);
  cache_.Invalidate();
  // Cached build sides embed the tables' contents, so a data mutation
  // invalidates them too; executing queries keep their shared_ptrs.
  if (build_cache_ != nullptr) build_cache_->Invalidate();
}

int QueryService::peak_concurrent() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  return peak_;
}

int64_t QueryService::queries_served() const {
  return served_total_->Value();
}

ServingStats QueryService::serving_stats() const {
  ServingStats out;
  out.served = served_total_->Value();
  out.shed = shed_total_->Value();
  out.timed_out = timed_out_total_->Value();
  out.cancelled = cancelled_total_->Value();
  out.failed = failed_total_->Value();
  return out;
}

}  // namespace bqo
