// End-to-end observability (src/obs): metrics registry units, trace span
// trees, and the EXPLAIN ANALYZE estimate-vs-actual report. The load-bearing
// pins:
//
//  * Trace *structure* and per-operator/per-filter actuals are pool-size-
//    invariant (pool {1,2,4} at a fixed per-query worker share) and
//    BuildCache-hit-invariant (as-if-built stat replay) — observability
//    never reports different numbers because of scheduling.
//  * A fault-struck query still produces a well-formed trace: sealed, open
//    spans closed as truncated, final status recorded — and lands in
//    exactly one outcome counter.
//  * The registry's hot path is exact under concurrency (no torn or lost
//    counts), and both export formats are well-formed. The build cache
//    exports its outcomes as counters and its residency as gauges, and a
//    service without one exports none of its metrics.
//
// Runs under -DBQO_SANITIZE=thread in CI (the obs-smoke job).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/obs/explain.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/optimizer/cost_model.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeStarDb;
using ::bqo::testing::TestDb;

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// MetricsRegistry units
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("bqo_test_total");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->Value(), 5);
  EXPECT_EQ(reg.GetCounter("bqo_test_total"), c) << "stable pointers";

  Gauge* g = reg.GetGauge("bqo_test_level");
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);

  Histogram* h = reg.GetHistogram("bqo_test_ms", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.0);  // le convention: lands in the <= 1.0 bucket
  h->Observe(1.5);
  h->Observe(5.0);  // +Inf bucket
  const std::vector<int64_t> buckets = h->CumulativeBuckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 3);
  EXPECT_EQ(buckets[2], 4);
  EXPECT_EQ(h->Count(), 4);
  EXPECT_DOUBLE_EQ(h->Sum(), 8.0);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("bqo_concurrent_total");
  Histogram* h = reg.GetHistogram("bqo_concurrent_ms", {10.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        h->Observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kIters);
  EXPECT_EQ(h->Count(), int64_t{kThreads} * kIters);
  EXPECT_DOUBLE_EQ(h->Sum(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(h->CumulativeBuckets().back(), int64_t{kThreads} * kIters);
}

TEST(MetricsRegistry, ExportFormatsAreWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("bqo_b_total")->Increment(7);
  reg.GetGauge("bqo_a_level")->Set(3);
  reg.GetHistogram("bqo_c_ms", {1.0, 8.0})->Observe(2.0);

  const std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // std::map keying => name-sorted, deterministic export order.
  EXPECT_EQ(snap[0].name, "bqo_a_level");
  EXPECT_EQ(snap[1].name, "bqo_b_total");
  EXPECT_EQ(snap[2].name, "bqo_c_ms");

  const std::string json = MetricsRegistry::ToJsonLines(snap);
  EXPECT_NE(json.find("{\"metric\":\"bqo_b_total\",\"type\":\"counter\","
                      "\"value\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"inf\""), std::string::npos);

  const std::string prom = MetricsRegistry::ToPrometheusText(snap);
  EXPECT_NE(prom.find("# TYPE bqo_b_total counter"), std::string::npos);
  EXPECT_NE(prom.find("bqo_b_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bqo_c_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("bqo_c_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("bqo_c_ms_count 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// QueryTrace units
// ---------------------------------------------------------------------------

TEST(QueryTrace, SpanNestingAndCleanSeal) {
  QueryTrace trace;
  const int root = trace.BeginSpan(SpanKind::kQuery, "q");
  {
    ScopedSpan child(&trace, SpanKind::kOptimize, "optimize");
    EXPECT_GE(child.id(), 0);
  }
  const int post = trace.AddCompletedSpan(SpanKind::kOperator, "scan f",
                                          /*parent=*/-1, 100, 50, 25);
  trace.EndSpan(root);
  trace.Seal(true, "OK");

  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[static_cast<size_t>(post)].parent, root)
      << "parent<0 parents under the innermost open span";
  EXPECT_EQ(spans[static_cast<size_t>(post)].wall_ns, 100);
  EXPECT_EQ(spans[static_cast<size_t>(post)].worker_cpu_ns, 25);
  for (const TraceSpan& s : spans) EXPECT_FALSE(s.truncated);
  EXPECT_TRUE(trace.complete());
}

TEST(QueryTrace, SealMarksOpenSpansTruncated) {
  QueryTrace trace;
  trace.BeginSpan(SpanKind::kQuery, "q");
  trace.BeginSpan(SpanKind::kExecute, "execute");
  trace.Seal(false, "INTERNAL: injected fault");
  trace.Seal(true, "second call loses");  // idempotent: first call wins

  const std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].truncated);
  EXPECT_TRUE(spans[1].truncated);
  EXPECT_FALSE(trace.complete());
  EXPECT_TRUE(trace.sealed());
  EXPECT_EQ(trace.status_message(), "INTERNAL: injected fault");
  EXPECT_NE(trace.ToString().find("trace truncated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service-level traces, EXPLAIN ANALYZE, and their invariance
// ---------------------------------------------------------------------------

/// (kind, name, parent) triples — the trace's structure, timing excluded.
std::vector<std::tuple<int, std::string, int>> SpanShape(
    const std::vector<TraceSpan>& spans) {
  std::vector<std::tuple<int, std::string, int>> out;
  out.reserve(spans.size());
  for (const TraceSpan& s : spans) {
    out.emplace_back(static_cast<int>(s.kind), s.name, s.parent);
  }
  return out;
}

/// The counter (non-timing) columns of the executed operators, in
/// CollectStats order.
std::vector<std::tuple<int, std::string, int64_t, int64_t, int64_t, int64_t>>
OperatorActuals(const QueryMetrics& m) {
  std::vector<std::tuple<int, std::string, int64_t, int64_t, int64_t, int64_t>>
      out;
  for (const OperatorStats& op : m.operators) {
    out.emplace_back(op.plan_node_id, op.label, op.rows_out,
                     op.rows_prefilter, op.probe_rows_in,
                     op.probe_rows_matched);
  }
  return out;
}

QueryServiceOptions StarServiceOptions() {
  QueryServiceOptions options;
  // threads == 1 runs each pipeline inline and spawns no pool task, so the
  // invariance sweep fixes the worker share at 2 and varies only the pool:
  // pool size changes which OS threads run tasks, never the plan or the
  // merged counters.
  options.execution.exec.threads = 2;
  options.max_concurrent_queries = 2;
  options.max_workers_per_query = 2;
  options.explain_analyze = true;
  return options;
}

TEST(Observability, TraceShapeAndActualsArePoolSizeInvariant) {
  GlobalPoolGuard guard;
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  const QueryServiceOptions options = StarServiceOptions();

  std::vector<std::tuple<int, std::string, int>> cold_shape, warm_shape;
  std::vector<std::tuple<int, std::string, int64_t, int64_t, int64_t,
                         int64_t>>
      cold_actuals;
  bool first = true;
  for (int pool : {1, 2, 4}) {
    WorkerPool::ResetGlobal(pool);
    QueryService service(&db->catalog, options);

    const QueryResult cold = service.Execute(db->spec);
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    ASSERT_NE(cold.trace, nullptr);
    EXPECT_TRUE(cold.trace->complete()) << cold.trace->ToString();
    EXPECT_FALSE(cold.plan_cache_hit);

    const QueryResult warm = service.Execute(db->spec);
    ASSERT_TRUE(warm.status.ok());
    ASSERT_NE(warm.trace, nullptr);
    EXPECT_TRUE(warm.plan_cache_hit);
    EXPECT_FALSE(warm.plan_rebound) << "identical constants: exact hit";

    const std::string what = "pool=" + std::to_string(pool);
    if (first) {
      cold_shape = SpanShape(cold.trace->spans());
      warm_shape = SpanShape(warm.trace->spans());
      cold_actuals = OperatorActuals(cold.metrics);
      // Sanity on the cold shape itself: a query root, an optimize span
      // (miss path), an execute span, and per-operator aggregates.
      int optimize = 0, execute = 0, operators = 0, builds = 0;
      for (const TraceSpan& s : cold.trace->spans()) {
        optimize += s.kind == SpanKind::kOptimize;
        execute += s.kind == SpanKind::kExecute;
        operators += s.kind == SpanKind::kOperator;
        builds += s.kind == SpanKind::kBuild;
      }
      EXPECT_EQ(optimize, 1);
      EXPECT_EQ(execute, 1);
      EXPECT_EQ(builds, 3) << "one build per star dimension";
      EXPECT_GE(operators, 7) << "3 joins + 4 scans at least";
      first = false;
    } else {
      EXPECT_EQ(SpanShape(cold.trace->spans()), cold_shape) << what;
      EXPECT_EQ(SpanShape(warm.trace->spans()), warm_shape) << what;
      EXPECT_EQ(OperatorActuals(cold.metrics), cold_actuals) << what;
    }
    EXPECT_EQ(OperatorActuals(warm.metrics), OperatorActuals(cold.metrics))
        << what << ": plan-cache hit must not change executed actuals";
  }
}

TEST(Observability, ActualsAndExplainAreBuildCacheInvariant) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);

  auto run_pair = [&](bool use_build_cache) {
    QueryServiceOptions options = StarServiceOptions();
    options.use_build_cache = use_build_cache;
    QueryService service(&db->catalog, options);
    const QueryResult cold = service.Execute(db->spec);
    const QueryResult hit = service.Execute(db->spec);
    EXPECT_TRUE(cold.status.ok());
    EXPECT_TRUE(hit.status.ok());
    return std::make_pair(cold, hit);
  };

  const auto [on_cold, on_hit] = run_pair(true);
  const auto [off_cold, off_hit] = run_pair(false);

  // The build-cache hit replays as-if-built stats; probe-side counters are
  // always live. Actuals must be identical in all four cells.
  const auto base = OperatorActuals(off_cold.metrics);
  EXPECT_EQ(OperatorActuals(off_hit.metrics), base);
  EXPECT_EQ(OperatorActuals(on_cold.metrics), base);
  EXPECT_EQ(OperatorActuals(on_hit.metrics), base)
      << "shared build must replay as-if-built operator stats";

  // kOperator span subset: identical across cache on/off and hit/miss
  // (live build spans legitimately differ — a hit has no kBuild span).
  // Parent ids are normalized to the subset (-1 = parented outside it)
  // since the number of preceding live spans shifts with the cache path.
  auto operator_spans = [](const QueryResult& r) {
    std::vector<std::pair<int, std::string>> out;
    std::map<int, int> subset_index;
    for (const TraceSpan& s : r.trace->spans()) {
      if (s.kind != SpanKind::kOperator) continue;
      subset_index[s.id] = static_cast<int>(out.size());
      const auto parent = subset_index.find(s.parent);
      out.emplace_back(
          parent != subset_index.end() ? parent->second : -1, s.name);
    }
    return out;
  };
  const auto op_base = operator_spans(off_cold);
  EXPECT_EQ(operator_spans(off_hit), op_base);
  EXPECT_EQ(operator_spans(on_cold), op_base);
  EXPECT_EQ(operator_spans(on_hit), op_base);

  // EXPLAIN rows: estimate and actual columns identical in all four cells.
  auto explain_rows = [](const QueryResult& r) {
    std::vector<std::tuple<int, double, double, int64_t, int64_t>> ops;
    EXPECT_NE(r.explain, nullptr);
    for (const OperatorExplainRow& op : r.explain->operators) {
      ops.emplace_back(op.node_id, op.est_rows, op.est_prefilter,
                       op.actual_rows, op.actual_prefilter);
    }
    return ops;
  };
  const auto explain_base = explain_rows(off_cold);
  EXPECT_EQ(explain_rows(off_hit), explain_base);
  EXPECT_EQ(explain_rows(on_cold), explain_base);
  EXPECT_EQ(explain_rows(on_hit), explain_base);
}

TEST(Observability, ExplainAnalyzeReportsEstimatesActualsAndFilterFpr) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  QueryService service(&db->catalog, StarServiceOptions());

  const QueryResult r = service.Execute(db->spec);
  ASSERT_TRUE(r.status.ok());
  ASSERT_NE(r.explain, nullptr);
  const ExplainReport& report = *r.explain;

  EXPECT_EQ(report.query_name, db->spec.name);
  EXPECT_EQ(report.result_rows, r.metrics.result_rows);
  EXPECT_GT(report.estimated_cost, 0);
  ASSERT_GE(report.operators.size(), 7u) << "3 joins + 4 scans";
  EXPECT_EQ(report.operators[0].depth, 0);
  EXPECT_FALSE(report.operators[0].is_leaf) << "preorder: root join first";
  int leaves = 0;
  for (const OperatorExplainRow& op : report.operators) {
    EXPECT_GE(op.node_id, 0);
    EXPECT_FALSE(op.label.empty());
    EXPECT_GT(op.est_rows, 0) << op.label;
    EXPECT_GT(op.actual_rows, 0) << op.label;
    EXPECT_GE(op.actual_prefilter, op.actual_rows) << op.label;
    leaves += op.is_leaf;
  }
  EXPECT_EQ(leaves, 4);

  ASSERT_FALSE(report.filters.empty());
  bool any_created = false, any_measured = false;
  for (const FilterExplainRow& f : report.filters) {
    if (!f.created) continue;
    any_created = true;
    EXPECT_EQ(f.kind, "blocked") << "default FilterConfig kind";
    EXPECT_GT(f.est_lambda, 0.0);
    EXPECT_LE(f.est_lambda, 1.0);
    EXPECT_GE(f.observed_lambda, 0.0);
    EXPECT_LE(f.observed_lambda, 1.0);
    // The Bloom model at 10 bits/key is ~1.3% FPR.
    EXPECT_GT(f.modeled_fpr, 0.0);
    EXPECT_LT(f.modeled_fpr, 0.05);
    EXPECT_GT(f.inserted, 0);
    EXPECT_GT(f.probed, 0);
    if (f.has_measured_fpr) {
      any_measured = true;
      EXPECT_GE(f.measured_fpr, 0.0);
      EXPECT_LE(f.measured_fpr, 1.0);
    }
  }
  EXPECT_TRUE(any_created);
  EXPECT_TRUE(any_measured)
      << "selective dimensions must yield a measured FPR";

  const std::string text = RenderExplainAnalyze(report);
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("est rows"), std::string::npos);
  EXPECT_NE(text.find("modeled FPR"), std::string::npos);
  EXPECT_NE(text.find("trace:"), std::string::npos)
      << "span tree rides along when tracing is on";
}

/// Every created filter is reported as the kind the execution options
/// configure, with that kind's modeled FPR at the configured budget; an
/// exact filter models and measures no false positives.
TEST(Observability, ExplainReportsTheConfiguredKindForEveryFilter) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    QueryServiceOptions options = StarServiceOptions();
    options.execution.filter_config.kind = kind;
    QueryService service(&db->catalog, options);
    const QueryResult r = service.Execute(db->spec);
    ASSERT_TRUE(r.status.ok()) << FilterKindName(kind);
    ASSERT_NE(r.explain, nullptr);

    const double modeled = EstimatedFilterFpr(
        kind, options.execution.filter_config.bloom_bits_per_key);
    int created = 0;
    for (const FilterExplainRow& f : r.explain->filters) {
      if (!f.created) {
        EXPECT_EQ(f.kind, "pruned");
        continue;
      }
      ++created;
      EXPECT_EQ(f.kind, FilterKindName(kind));
      EXPECT_EQ(f.modeled_fpr, modeled) << FilterKindName(kind);
      if (kind == FilterKind::kExact && f.has_measured_fpr) {
        EXPECT_EQ(f.measured_fpr, 0.0) << "filter " << f.filter_id;
      }
    }
    EXPECT_GT(created, 0) << FilterKindName(kind);
    if (kind == FilterKind::kExact) EXPECT_EQ(modeled, 0.0);
  }
}

TEST(Observability, FaultStruckQueryYieldsTruncatedTraceAndOneFailure) {
  GlobalPoolGuard guard;
  FaultGuard fault_guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 433, /*zipf=*/0.5);
  QueryService service(&db->catalog, StarServiceOptions());

  FaultInjector::Global().Arm(FaultInjector::Site::kPlanCacheLookup,
                              /*every=*/1);
  const QueryResult r = service.Execute(db->spec);
  EXPECT_TRUE(r.status.IsInternal()) << r.status.ToString();

  ASSERT_NE(r.trace, nullptr);
  EXPECT_TRUE(r.trace->sealed());
  EXPECT_FALSE(r.trace->complete());
  const std::vector<TraceSpan> spans = r.trace->spans();
  ASSERT_FALSE(spans.empty());
  bool any_truncated = false;
  for (const TraceSpan& s : spans) {
    EXPECT_GE(s.parent, -1);
    EXPECT_LT(s.parent, s.id) << "parents precede children";
    any_truncated = any_truncated || s.truncated;
  }
  EXPECT_TRUE(any_truncated) << "the unwound query span must be truncated";
  EXPECT_NE(r.trace->status_message().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(r.explain, nullptr) << "no report for a void execution";

  FaultInjector::Global().DisarmAll();
  const QueryResult ok = service.Execute(db->spec);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_TRUE(ok.trace->complete());

  const ServingStats s = service.serving_stats();
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.served, 1);
  EXPECT_EQ(s.Total(), 2);
}

TEST(Observability, SlowQueryLogAndMetricsDump) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 433, /*zipf=*/0.5);
  QueryServiceOptions options = StarServiceOptions();
  options.slow_query_ms = 0;  // log every finished query (deterministic)
  std::vector<std::string> logged;
  options.slow_query_sink = [&](const std::string& s) { logged.push_back(s); };
  QueryService service(&db->catalog, options);

  ASSERT_TRUE(service.Execute(db->spec).status.ok());
  ASSERT_TRUE(service.Execute(db->spec).status.ok());
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_NE(logged[0].find("[slow query] " + db->spec.name),
            std::string::npos)
      << logged[0];
  EXPECT_NE(logged[0].find("status OK"), std::string::npos);
  EXPECT_NE(logged[0].find("[query]"), std::string::npos)
      << "span tree attached: " << logged[0];
  EXPECT_NE(logged[1].find("plan cache hit"), std::string::npos);

  const std::string json = service.DumpMetrics();
  EXPECT_NE(json.find("\"metric\":\"bqo_serving_served_total\",\"type\":"
                      "\"counter\",\"value\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("bqo_serving_slow_queries_total"), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"bqo_plan_cache_hits_total\",\"type\":"
                      "\"counter\",\"value\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("bqo_query_latency_ms"), std::string::npos);

  const std::string prom =
      service.DumpMetrics(QueryService::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("# TYPE bqo_serving_served_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("bqo_serving_served_total 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bqo_query_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("bqo_query_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("bqo_build_cache_lookups_total"), std::string::npos);
  EXPECT_NE(prom.find("bqo_admission_peak"), std::string::npos);
}

/// The build cache's outcome counters export as counters (monotonic, so
/// rate() works) and its residency as gauges, with the values stats()
/// reads back.
TEST(Observability, BuildCacheMetricsExportAsCountersAndGauges) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 433, /*zipf=*/0.5);
  QueryService service(&db->catalog, StarServiceOptions());
  ASSERT_TRUE(service.Execute(db->spec).status.ok());
  ASSERT_TRUE(service.Execute(db->spec).status.ok());

  const BuildCacheStats s = service.build_cache_stats();
  ASSERT_GT(s.lookups, 0);
  EXPECT_GT(s.hits, 0) << "the second run shares the first run's builds";
  const std::string json = service.DumpMetrics();
  const std::vector<std::tuple<std::string, const char*, int64_t>> expected =
      {{"lookups_total", "counter", s.lookups},
       {"hits_total", "counter", s.hits},
       {"misses_total", "counter", s.misses},
       {"single_flight_waits_total", "counter", s.single_flight_waits},
       {"evictions_total", "counter", s.evictions},
       {"invalidations_total", "counter", s.invalidations},
       {"entries", "gauge", s.entries},
       {"bytes", "gauge", s.bytes}};
  const std::string prom =
      service.DumpMetrics(QueryService::MetricsFormat::kPrometheus);
  for (const auto& [field, type, value] : expected) {
    const std::string name = "bqo_build_cache_" + field;
    EXPECT_NE(json.find("\"metric\":\"" + name + "\",\"type\":\"" + type +
                        "\",\"value\":" + std::to_string(value) + "}"),
              std::string::npos)
        << name << "\n" << json;
    EXPECT_NE(prom.find("# TYPE " + name + " " + type), std::string::npos)
        << name;
  }
}

TEST(Observability, DisabledBuildCacheExportsNoBuildCacheMetrics) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 433, /*zipf=*/0.5);
  QueryServiceOptions options = StarServiceOptions();
  options.use_build_cache = false;
  QueryService service(&db->catalog, options);
  ASSERT_TRUE(service.Execute(db->spec).status.ok());
  ASSERT_TRUE(service.Execute(db->spec).status.ok());

  const BuildCacheStats s = service.build_cache_stats();
  EXPECT_EQ(s.lookups, 0);
  EXPECT_EQ(s.entries, 0);
  const std::string json = service.DumpMetrics();
  EXPECT_EQ(json.find("bqo_build_cache_"), std::string::npos) << json;
  EXPECT_EQ(service.DumpMetrics(QueryService::MetricsFormat::kPrometheus)
                .find("bqo_build_cache_"),
            std::string::npos);
  // The rest of the serving metrics are unaffected.
  EXPECT_NE(json.find("\"metric\":\"bqo_plan_cache_hits_total\",\"type\":"
                      "\"counter\",\"value\":1"),
            std::string::npos)
      << json;
}

TEST(Observability, TracingOffProducesNoTraceButServingStatsStillCount) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 433, /*zipf=*/0.5);
  QueryServiceOptions options = StarServiceOptions();
  options.collect_traces = false;
  QueryService service(&db->catalog, options);

  const QueryResult r = service.Execute(db->spec);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.trace, nullptr);
  ASSERT_NE(r.explain, nullptr) << "EXPLAIN works without a trace";
  EXPECT_TRUE(r.explain->spans.empty());
  EXPECT_EQ(service.serving_stats().served, 1);
}

TEST(Observability, ServingEnvOverridesCoverTraceAndSlowQueryKnobs) {
  ::setenv("BQO_TRACE", "off", 1);
  ::setenv("BQO_SLOW_QUERY_MS", "0", 1);
  const QueryServiceOptions options =
      ApplyServingEnvOverrides(QueryServiceOptions{});
  ::unsetenv("BQO_TRACE");
  ::unsetenv("BQO_SLOW_QUERY_MS");
  EXPECT_FALSE(options.collect_traces);
  EXPECT_EQ(options.slow_query_ms, 0);
  const QueryServiceOptions defaults =
      ApplyServingEnvOverrides(QueryServiceOptions{});
  EXPECT_TRUE(defaults.collect_traces);
  EXPECT_EQ(defaults.slow_query_ms, -1);
}

}  // namespace
}  // namespace bqo
