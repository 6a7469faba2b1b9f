// Serving-layer correctness: the shared WorkerPool, the QueryService's
// admission control, and the PlanCache must all be pure scheduling — at any
// pool size and any client count, every query's results and merged stats
// equal its single-query threads==1 run. Pins:
//
//  * WorkerPool task semantics: groups complete, Wait() helps (runs the
//    group's queued tasks on the waiting thread) so a saturated — or
//    size-1 — pool never stalls a drain.
//  * Pool-size invariance: ExecutePlan over star / bushy plans at pool
//    sizes {1,2,4} x exec threads {1,2,4} reproduces the threads==1
//    results, checksums, and merged filter stats exactly.
//  * Concurrent service parity: {2,4} clients pushing star / snowflake
//    queries (grouped and ungrouped aggregates) through one
//    QueryService get results identical to single-query baseline runs —
//    including each query's ResultChecksum/NumGroups and
//    probed/passed/inserted filter stats.
//  * Plan-cache behavior: hit-path parity (a cached plan executes
//    identically to the freshly optimized one), LRU eviction, hit/miss/
//    eviction counters, and invalidation on catalog change.
//  * Admission control: active queries never exceed max_concurrent_queries
//    and the per-query worker share clamps execution width.
//  * A real lite workload served from two clients answers exactly as the
//    sequential RunWorkload does.
//  * A spec with a malformed predicate or join graph (duplicate alias,
//    unknown join column, self-join) fails its own query with
//    InvalidArgument and leaves the service serving.
//
// Run under -DBQO_SANITIZE=thread in CI: the concurrent-clients tests are
// the TSan coverage for the whole serving stack.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/executor.h"
#include "src/plan/pushdown.h"
#include "src/server/plan_cache.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "src/workload/runner.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;
using ::bqo::testing::TestDb;

/// Restores the default (env-sized) global pool when a test that resized
/// it ends, so test order does not matter.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

// ---- WorkerPool unit tests ----

TEST(WorkerPool, TasksRunToCompletionAcrossGroups) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  WorkerPool::TaskGroup a(&pool);
  WorkerPool::TaskGroup b(&pool);
  for (int i = 0; i < 64; ++i) {
    a.Spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    b.Spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  a.Wait();
  b.Wait();
  EXPECT_EQ(ran.load(), 128);
  // Wait() after completion is a no-op; groups are reusable.
  a.Spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  a.Wait();
  EXPECT_EQ(ran.load(), 129);
}

/// A pool whose only worker is blocked must still complete another group's
/// tasks: Wait() runs them on the waiting thread (helping). This is the
/// per-query progress guarantee admission control relies on.
TEST(WorkerPool, WaitHelpsWhenPoolIsSaturated) {
  WorkerPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::promise<void> occupied;

  WorkerPool::TaskGroup blocker(&pool);
  blocker.Spawn([&occupied, released] {
    occupied.set_value();
    released.wait();  // pin the pool's single worker
  });
  occupied.get_future().wait();

  WorkerPool::TaskGroup group(&pool);
  std::atomic<int> ran{0};
  const auto self = std::this_thread::get_id();
  std::atomic<bool> all_on_waiter{true};
  for (int i = 0; i < 8; ++i) {
    group.Spawn([&ran, &all_on_waiter, self] {
      if (std::this_thread::get_id() != self) all_on_waiter = false;
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  group.Wait();  // must not deadlock
  EXPECT_EQ(ran.load(), 8);
  // The worker is still pinned, so every task ran inline on this thread.
  EXPECT_TRUE(all_on_waiter.load());

  release.set_value();
  blocker.Wait();
}

// ---- Pool-size invariance of the execution engine ----

struct PlanUnderTest {
  std::unique_ptr<TestDb> db;
  JoinGraph graph;
  Plan plan;
  ExecutionOptions options;
};

std::unique_ptr<PlanUnderTest> MakeStarPlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeStarDb(3, 25000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.5);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan = BuildRightDeepPlan(t->graph, {0, 1, 2, 3});
  PushDownBitvectors(&t->plan);
  t->options.agg.kind = AggKind::kSum;
  t->options.agg.sum_column = BoundColumn{0, "measure"};
  t->options.agg.has_group_by = true;
  t->options.agg.group_column = BoundColumn{1, "d0_id"};
  return t;
}

std::unique_ptr<PlanUnderTest> MakeBushyPlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeSnowflakeDb({2, 2}, 18000, 400, 0.5, {0.4, 0.5}, 661,
                          /*zipf=*/0.4);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan.graph = &t->graph;
  auto branch0 = MakeJoin(t->graph, MakeLeaf(t->graph, 2), MakeLeaf(t->graph, 1));
  auto branch1 = MakeJoin(t->graph, MakeLeaf(t->graph, 4), MakeLeaf(t->graph, 3));
  auto inner = MakeJoin(t->graph, std::move(branch1), MakeLeaf(t->graph, 0));
  t->plan.root = MakeJoin(t->graph, std::move(branch0), std::move(inner));
  BQO_CHECK(t->plan.root != nullptr);
  t->plan.Renumber();
  BQO_CHECK(t->plan.Validate());
  PushDownBitvectors(&t->plan);
  return t;
}

void ExpectMetricsEqual(const QueryMetrics& base, const QueryMetrics& m,
                        const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].created, base.filters[i].created) << what << " f" << i;
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " f" << i;
  }
}

/// The pool size changes which OS threads run the drains, never the
/// results: star and bushy plans at pool {1,2,4} x threads {2,4} must
/// match their threads==1 runs exactly.
TEST(WorkerPoolInvariance, PoolSizeNeverChangesResults) {
  GlobalPoolGuard guard;
  struct Shape {
    const char* name;
    std::unique_ptr<PlanUnderTest> t;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"star", MakeStarPlan()});
  shapes.push_back({"bushy", MakeBushyPlan()});

  for (Shape& shape : shapes) {
    ExecutionOptions single = shape.t->options;
    single.exec.threads = 1;
    const QueryMetrics base = ExecutePlan(shape.t->plan, single);

    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      for (int threads : {2, 4}) {
        ExecutionOptions parallel = shape.t->options;
        parallel.exec.threads = threads;
        parallel.exec.morsel_rows = 1024;
        const QueryMetrics m = ExecutePlan(shape.t->plan, parallel);
        ExpectMetricsEqual(base, m,
                           std::string(shape.name) + " pool=" +
                               std::to_string(pool) +
                               " threads=" + std::to_string(threads));
        // Logical workers are reported regardless of pool size.
        for (const OperatorStats& op : m.operators) {
          if (op.type == OperatorType::kAggregate) {
            EXPECT_EQ(op.parallel_workers, threads);
          }
        }
      }
    }
  }
}

/// cpu_ns is the query's own task time: positive, and under parallel
/// execution it includes the pool workers' CPU (worker_cpu_ns).
TEST(WorkerPoolInvariance, CpuTimeAccounting) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto t = MakeStarPlan();

  ExecutionOptions single = t->options;
  const QueryMetrics base = ExecutePlan(t->plan, single);
  EXPECT_GT(base.cpu_ns, 0);

  ExecutionOptions parallel = t->options;
  parallel.exec.threads = 4;
  const QueryMetrics m = ExecutePlan(t->plan, parallel);
  EXPECT_GT(m.cpu_ns, 0);
  int64_t worker_cpu = 0;
  for (const OperatorStats& op : m.operators) worker_cpu += op.worker_cpu_ns;
  EXPECT_GT(worker_cpu, 0);
  EXPECT_GE(m.cpu_ns, worker_cpu);
}

// ---- QueryService: concurrent parity ----

/// Query variants over one TestDb: COUNT(*), ungrouped SUM, grouped SUM.
std::vector<QuerySpec> SpecVariants(const TestDb& db,
                                    const std::string& group_col) {
  std::vector<QuerySpec> specs;
  QuerySpec count = db.spec;
  count.name = db.spec.name + "-count";
  specs.push_back(count);

  QuerySpec sum = db.spec;
  sum.name = db.spec.name + "-sum";
  sum.agg.kind = AggKind::kSum;
  sum.agg.sum_column = BoundColumn{0, "measure"};
  specs.push_back(sum);

  QuerySpec grouped = sum;
  grouped.name = db.spec.name + "-grouped";
  grouped.agg.has_group_by = true;
  grouped.agg.group_column = BoundColumn{1, group_col};
  specs.push_back(grouped);
  return specs;
}

/// Single-query baselines: the same optimizer pipeline the service runs,
/// executed threads==1, one query at a time.
std::vector<QueryMetrics> Baselines(const TestDb& db,
                                    const std::vector<QuerySpec>& specs,
                                    const QueryServiceOptions& options) {
  std::vector<QueryMetrics> out;
  StatsCatalog stats(&db.catalog);
  for (const QuerySpec& spec : specs) {
    auto graph = BuildJoinGraph(db.catalog, spec);
    BQO_CHECK(graph.ok());
    OptimizedQuery optimized =
        OptimizeQuery(graph.value(), &stats, options.optimizer);
    ExecutionOptions exec = options.execution;
    exec.exec.threads = 1;
    exec.agg = spec.agg;
    out.push_back(ExecutePlan(optimized.plan, exec));
  }
  return out;
}

/// Drive `specs` through one service from `clients` threads, `iters` laps
/// each, and pin every result to the single-query baselines.
void RunConcurrentParity(const TestDb& db, const std::vector<QuerySpec>& specs,
                         QueryServiceOptions options, int clients, int iters,
                         const std::string& what) {
  const std::vector<QueryMetrics> base = Baselines(db, specs, options);
  QueryService service(&db.catalog, options);

  std::vector<std::vector<QueryResult>> results(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int it = 0; it < iters; ++it) {
        for (const QuerySpec& spec : specs) {
          results[static_cast<size_t>(c)].push_back(service.Execute(spec));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < clients; ++c) {
    const auto& client_results = results[static_cast<size_t>(c)];
    ASSERT_EQ(client_results.size(), specs.size() * static_cast<size_t>(iters));
    for (size_t i = 0; i < client_results.size(); ++i) {
      const size_t spec_idx = i % specs.size();
      ExpectMetricsEqual(base[spec_idx], client_results[i].metrics,
                         what + " client=" + std::to_string(c) + " " +
                             specs[spec_idx].name);
    }
  }
  EXPECT_EQ(service.queries_served(),
            static_cast<int64_t>(specs.size()) * clients * iters);
}

/// {2,4} clients x star and snowflake query variants, pool of 4,
/// 2 workers per query: every served result equals its single-query
/// threads==1 baseline. This is the serving stack's TSan workout.
TEST(QueryService, ConcurrentClientsMatchSingleQueryRuns) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(4);

  auto star = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  auto snowflake =
      MakeSnowflakeDb({2, 2}, 15000, 400, 0.5, {0.4, 0.5}, 2088, /*zipf=*/0.4);

  QueryServiceOptions options;
  options.execution.exec.threads = 2;
  options.max_concurrent_queries = 2;
  options.max_workers_per_query = 2;

  for (int clients : {2, 4}) {
    RunConcurrentParity(*star, SpecVariants(*star, "d0_id"), options, clients,
                        /*iters=*/2,
                        "star clients=" + std::to_string(clients));
    RunConcurrentParity(*snowflake, SpecVariants(*snowflake, "b0_1_id"),
                        options, clients, /*iters=*/2,
                        "snowflake clients=" + std::to_string(clients));
  }
}

// ---- QueryService: plan cache ----

TEST(QueryService, PlanCacheHitExecutesIdentically) {
  auto db = MakeStarDb(2, 10000, 200, {0.4, 0.5}, 55, /*zipf=*/0.5);
  QueryServiceOptions options;
  QueryService service(&db->catalog, options);
  const QuerySpec spec = SpecVariants(*db, "d0_id")[2];  // grouped SUM

  const QueryResult miss = service.Execute(spec);
  EXPECT_FALSE(miss.plan_cache_hit);
  EXPECT_GT(miss.optimize_ns, 0);

  const QueryResult hit = service.Execute(spec);
  EXPECT_TRUE(hit.plan_cache_hit);
  EXPECT_EQ(hit.optimize_ns, 0);  // nothing was optimized
  EXPECT_EQ(hit.estimated_cost, miss.estimated_cost);
  EXPECT_EQ(hit.pruned_filters, miss.pruned_filters);
  ExpectMetricsEqual(miss.metrics, hit.metrics, "cache hit");

  const PlanCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

/// A spec whose predicate does not bind — a double literal against an
/// int64 column, or a column the table lacks — fails that query alone with
/// InvalidArgument; the service keeps serving, with unchanged answers.
TEST(QueryService, MalformedPredicateFailsOnlyItsQuery) {
  auto db = MakeStarDb(2, 10000, 200, {0.4, 0.5}, 55);
  QueryService service(&db->catalog, QueryServiceOptions{});
  const QuerySpec good = db->spec;
  const QueryResult before = service.Execute(good);
  ASSERT_TRUE(before.status.ok());

  for (const ExprPtr& bad_predicate :
       {Compare("attr0", CompareOp::kLt, Value(2.5)), Eq("no_such", 1)}) {
    QuerySpec bad = good;
    bad.relations[1].predicate = bad_predicate;
    const QueryResult r = service.Execute(bad);
    EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
  }

  const QueryResult after = service.Execute(good);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.metrics.result_checksum, before.metrics.result_checksum);
  ExpectMetricsEqual(before.metrics, after.metrics, "after bad specs");
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.served, 2);
}

/// A spec that does not lower to a join graph — a duplicate relation
/// alias, a join condition naming a column its table lacks or a double
/// column, one joining an alias to itself, or more than 64 relations —
/// fails that query alone with InvalidArgument instead of a fatal check;
/// the next good spec serves the same checksum and FilterStats.
TEST(QueryService, MalformedJoinGraphFailsOnlyItsQuery) {
  auto db = MakeStarDb(2, 10000, 200, {0.4, 0.5}, 55);
  ASSERT_TRUE(db->catalog.CreateTable("dbl", {{"v", DataType::kDouble}}).ok());
  QueryService service(&db->catalog, QueryServiceOptions{});
  const QuerySpec good = db->spec;
  const QueryResult before = service.Execute(good);
  ASSERT_TRUE(before.status.ok());

  QuerySpec duplicate_alias = good;
  duplicate_alias.relations[2].alias = duplicate_alias.relations[1].alias;
  QuerySpec missing_column = good;
  missing_column.joins[0].right_column = "no_such";
  QuerySpec double_column = good;
  double_column.relations.push_back({"x", "dbl", nullptr});
  double_column.joins.push_back({"f", "d0_fk", "x", "v"});
  QuerySpec self_join = good;
  self_join.joins[0].right_alias = self_join.joins[0].left_alias;
  QuerySpec too_many = good;
  for (int i = 0; i < 62; ++i) {
    too_many.relations.push_back({"r" + std::to_string(i), "d0", nullptr});
  }
  ASSERT_EQ(too_many.relations.size(), 65u);
  for (const QuerySpec& bad : {duplicate_alias, missing_column, double_column,
                               self_join, too_many}) {
    const QueryResult r = service.Execute(bad);
    EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
    const QueryResult after = service.Execute(good);
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(after.metrics.result_checksum, before.metrics.result_checksum);
    ExpectMetricsEqual(before.metrics, after.metrics,
                       "after " + r.status.ToString());
  }
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.failed, 5);
  EXPECT_EQ(stats.served, 6);
}

/// A predicated miss pays one optimization, and optimize_ns (QueryResult
/// and CachedPlan) reports that optimization's own clock: the entry
/// carries OptimizedQuery::optimize_ns unchanged, and the service's miss
/// reports at most the enclosing optimize span. Each bound compares
/// nested reads of one steady clock, so the test is deterministic.
TEST(QueryService, MissReportsWholeParameterizedOptimization) {
  auto db = MakeStarDb(2, 10000, 200, {0.4, 0.5}, 55, /*zipf=*/0.5);
  const QuerySpec spec = SpecVariants(*db, "d0_id")[0];
  QueryServiceOptions options;  // plan cache and traces on

  // What the miss path runs and caches.
  auto graph = BuildJoinGraph(db->catalog, spec);
  ASSERT_TRUE(graph.ok());
  StatsCatalog stats(&db->catalog);
  ParameterizedPlan direct =
      OptimizeParameterized(graph.value(), &stats, options.optimizer);
  ASSERT_FALSE(direct.constants[1].empty()) << "d0 carries a predicate";
  const int64_t inner_ns = direct.optimized.optimize_ns;
  ASSERT_GT(inner_ns, 0);
  PlanCache cache(4);
  const auto entry = cache.Insert(
      PlanCache::ShapeSignature(graph.value(), options.optimizer),
      db->catalog.version(), graph.value(), std::move(direct));
  EXPECT_EQ(entry->optimize_ns, inner_ns);

  QueryService service(&db->catalog, options);
  const QueryResult miss = service.Execute(spec);
  ASSERT_TRUE(miss.status.ok());
  ASSERT_FALSE(miss.plan_cache_hit);
  ASSERT_NE(miss.trace, nullptr);
  int64_t span_ns = -1;
  for (const TraceSpan& s : miss.trace->spans()) {
    if (s.kind == SpanKind::kOptimize) span_ns = s.wall_ns;
  }
  ASSERT_GE(span_ns, 0);
  EXPECT_GT(miss.optimize_ns, 0);
  EXPECT_LE(miss.optimize_ns, span_ns);
}

TEST(QueryService, PlanCacheLruEvictionAndCounters) {
  auto db = MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77, /*zipf=*/0.5);
  QueryServiceOptions options;
  options.plan_cache_capacity = 2;
  QueryService service(&db->catalog, options);
  // Three distinct *shapes*: the cache keys on predicate structure, so the
  // specs must differ structurally, not just in literals (those would all
  // land in one entry as re-binds).
  std::vector<QuerySpec> specs;
  std::vector<ExprPtr> predicates;
  predicates.push_back(Lt("attr0", 400));
  predicates.push_back(Between("attr0", 100, 500));
  predicates.push_back(In("attr0", {1, 2, 3, 4, 5}));
  for (size_t i = 0; i < predicates.size(); ++i) {
    QuerySpec spec = db->spec;
    spec.name = "q" + std::to_string(i);
    spec.relations[1].predicate = predicates[i];
    specs.push_back(spec);
  }

  service.Execute(specs[0]);  // miss, {0}
  service.Execute(specs[1]);  // miss, {0,1}
  service.Execute(specs[2]);  // miss, evicts 0 -> {1,2}
  service.Execute(specs[0]);  // miss again, evicts 1 -> {2,0}
  service.Execute(specs[2]);  // hit

  const PlanCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.entries, 2);
}

TEST(QueryService, PlanCacheInvalidatesOnCatalogChange) {
  auto db = MakeStarDb(2, 8000, 200, {0.4, 0.5}, 99, /*zipf=*/0.5);
  QueryServiceOptions options;
  QueryService service(&db->catalog, options);
  const QuerySpec spec = db->spec;

  const QueryResult first = service.Execute(spec);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(service.Execute(spec).plan_cache_hit);

  // DDL bumps Catalog::version(); the next lookup must flush the cache.
  ASSERT_TRUE(db->catalog.CreateTable("extra", {{"x", DataType::kInt64}}).ok());
  const QueryResult after = service.Execute(spec);
  EXPECT_FALSE(after.plan_cache_hit);
  ExpectMetricsEqual(first.metrics, after.metrics, "post-invalidation");
  EXPECT_EQ(service.cache_stats().invalidations, 1);

  // Explicit invalidation (data-change path) also flushes.
  service.InvalidateCache();
  EXPECT_FALSE(service.Execute(spec).plan_cache_hit);
  EXPECT_EQ(service.cache_stats().invalidations, 2);
}

// A data load resets the loaded columns' distinct counts, so the first
// optimization after InvalidateCache costs the new rows exactly as a
// service that never saw the old data does.
TEST(QueryService, OptimizationAfterLoadSeesNewDistinctCounts) {
  // Appends 100 rows to d0 with new keys, copying the other columns.
  auto load = [](TestDb* db) {
    Table* d0 = db->catalog.GetTable("d0").value();
    const int id_col = d0->ColumnIndex("d0_id");
    const int64_t rows = d0->num_rows();
    for (int64_t r = 0; r < 100; ++r) {
      std::vector<Value> values;
      for (int c = 0; c < d0->num_columns(); ++c) {
        values.push_back(c == id_col ? Value(rows + r)
                                     : d0->column(c).GetValue(r));
      }
      ASSERT_TRUE(d0->AppendRow(values).ok());
    }
  };
  auto db = MakeStarDb(2, 8000, 200, {0.4, 0.5}, 99);
  QueryService service(&db->catalog, QueryServiceOptions{});
  const QueryResult before = service.Execute(db->spec);
  ASSERT_TRUE(before.status.ok());
  load(db.get());
  service.InvalidateCache();
  const QueryResult after = service.Execute(db->spec);
  ASSERT_TRUE(after.status.ok());

  auto twin = MakeStarDb(2, 8000, 200, {0.4, 0.5}, 99);
  load(twin.get());
  QueryService fresh(&twin->catalog, QueryServiceOptions{});
  const QueryResult expected = fresh.Execute(twin->spec);
  ASSERT_TRUE(expected.status.ok());
  EXPECT_NE(after.estimated_cost, before.estimated_cost);
  EXPECT_EQ(after.estimated_cost, expected.estimated_cost);
  ExpectMetricsEqual(expected.metrics, after.metrics, "after load");
}

TEST(PlanCache, ShapeSignatureCanonicalization) {
  auto db = MakeStarDb(2, 5000, 100, {0.4, 0.5}, 21);
  OptimizerOptions opt;

  auto graph1 = db->Graph();
  auto graph2 = db->Graph();
  ASSERT_TRUE(graph1.ok() && graph2.ok());
  // Same query, rebuilt: identical signature.
  EXPECT_EQ(PlanCache::ShapeSignature(graph1.value(), opt),
            PlanCache::ShapeSignature(graph2.value(), opt));

  // Different predicate constant: SAME signature — the cache keys on
  // shape, and literals are slots (the constant table differs instead;
  // tests/test_plan_shape_cache.cc pins the re-bind protocol).
  QuerySpec changed = db->spec;
  changed.relations[1].predicate = Lt("attr0", 123);
  auto graph3 = BuildJoinGraph(db->catalog, changed);
  ASSERT_TRUE(graph3.ok());
  EXPECT_EQ(PlanCache::ShapeSignature(graph1.value(), opt),
            PlanCache::ShapeSignature(graph3.value(), opt));

  // Fewer relations/joins: different signature.
  QuerySpec narrower = db->spec;
  narrower.relations.pop_back();
  narrower.joins.pop_back();
  auto graph4 = BuildJoinGraph(db->catalog, narrower);
  ASSERT_TRUE(graph4.ok());
  EXPECT_NE(PlanCache::ShapeSignature(graph1.value(), opt),
            PlanCache::ShapeSignature(graph4.value(), opt));

  // Different optimizer knobs: different signature (they change the plan).
  OptimizerOptions other = opt;
  other.lambda_thresh = 0.5;
  EXPECT_NE(PlanCache::ShapeSignature(graph1.value(), opt),
            PlanCache::ShapeSignature(graph1.value(), other));
}

// ---- QueryService: admission control ----

TEST(QueryService, AdmissionBoundsConcurrencyAndClampsWorkers) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(4);

  auto db = MakeStarDb(2, 15000, 250, {0.4, 0.5}, 313, /*zipf=*/0.5);
  QueryServiceOptions options;
  options.max_concurrent_queries = 2;
  options.execution.exec.threads = 8;  // ask wide; the share must clamp
  QueryService service(&db->catalog, options);
  EXPECT_EQ(service.max_concurrent(), 2);
  EXPECT_EQ(service.workers_per_query(), 2);  // pool 4 / 2 admitted

  const QuerySpec spec = db->spec;
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        const QueryResult r = service.Execute(spec);
        // The top pipeline ran with the clamped worker count, not 8.
        for (const OperatorStats& op : r.metrics.operators) {
          if (op.type == OperatorType::kAggregate) {
            EXPECT_EQ(op.parallel_workers, 2);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_LE(service.peak_concurrent(), 2);
  EXPECT_EQ(service.queries_served(), 12);
}

// ---- A real lite workload through the service ----

/// Two client threads serving TPC-DS-lite through one QueryService must
/// reproduce RunWorkload's per-query results (rows, checksums, filter
/// usage) — concurrency and the plan cache are invisible in the answers.
TEST(QueryService, TwoClientLiteWorkloadMatchesSequentialRunner) {
  const Workload workload = MakeTpcdsLite(0.04);
  RunOptions run_options;
  run_options.repeats = 1;
  run_options.limit = 8;
  const std::vector<QueryRun> sequential =
      RunWorkload(workload, OptimizerMode::kBqoShallow, run_options);
  ASSERT_EQ(sequential.size(), run_options.limit);

  QueryServiceOptions options;
  options.optimizer.mode = OptimizerMode::kBqoShallow;
  QueryService service(workload.catalog.get(), options);
  std::vector<QueryResult> served(sequential.size());
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const size_t qi = cursor.fetch_add(1);
        if (qi >= served.size()) return;
        served[qi] = service.Execute(workload.queries[qi]);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < sequential.size(); ++i) {
    const QueryResult& r = served[i];
    ASSERT_TRUE(r.status.ok()) << sequential[i].query_name;
    EXPECT_EQ(r.metrics.result_rows, sequential[i].metrics.result_rows) << i;
    EXPECT_EQ(r.metrics.result_checksum,
              sequential[i].metrics.result_checksum) << i;
    // A re-bound shape hit may carry the plan (and cost) of the template's
    // first literals; its answers above are still exact, but plan-identity
    // fields are only pinned for results that were not rebound.
    if (!r.plan_rebound) {
      EXPECT_EQ(r.used_bitvectors, sequential[i].used_bitvectors) << i;
      EXPECT_EQ(r.estimated_cost, sequential[i].estimated_cost) << i;
    }
  }
}

}  // namespace
}  // namespace bqo
