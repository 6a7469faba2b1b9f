// Cross-query build sharing: the BuildCache wired into QueryService must be
// pure memoization — concurrent clients that share build sides get results
// byte-identical to cold single-query threads==1 runs, while the cache pins
// exactly one construction per build signature. Pins:
//
//  * Single-flight at service level: 8 clients pushing the same star /
//    snowflake query variants through one service, at pool sizes {1,2,4},
//    build each signature exactly once (misses == one cold pass's misses)
//    and every result checksum-matches its baseline.
//  * Catalog BumpVersion between and during passes invalidates cached
//    builds without breaking executing queries: results stay baseline-
//    equal, stale entries are rebuilt, nothing is freed out from under a
//    running plan.
//  * An armed filter_fill fault during a shared build fails every query
//    that needed that build with the leader's internal status, and the
//    cache recovers cleanly once disarmed.
//  * use_build_cache=false is a true bypass: parity holds and the stats
//    stay zero.
//
// Run under -DBQO_SANITIZE=thread in CI (the build-cache-stress job): these
// tests are the TSan coverage for single-flight construction, mid-flight
// invalidation, and fail-all under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/exec/executor.h"
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

/// Disarms every fault site on scope exit, armed or not.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().DisarmAll(); }
};

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

/// Query variants over one TestDb: COUNT(*), ungrouped SUM, grouped SUM.
/// All three share one join tree and predicate set, so they share build
/// signatures — the sharpest test of cross-query sharing.
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
/// executed threads==1 via ExecutePlan directly — no service, no build
/// cache, every build constructed cold.
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

/// Drive `specs` through `service` from `clients` threads, `iters` laps
/// each; returns per-client results in submission order.
std::vector<std::vector<QueryResult>> RunClients(
    QueryService* service, const std::vector<QuerySpec>& specs, int clients,
    int iters) {
  std::vector<std::vector<QueryResult>> results(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int it = 0; it < iters; ++it) {
        for (const QuerySpec& spec : specs) {
          results[static_cast<size_t>(c)].push_back(service->Execute(spec));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

/// Every result OK and byte-identical to its spec's baseline.
void ExpectAllMatchBaselines(
    const std::vector<std::vector<QueryResult>>& results,
    const std::vector<QueryMetrics>& base, const std::vector<QuerySpec>& specs,
    int iters, const std::string& what) {
  for (size_t c = 0; c < results.size(); ++c) {
    ASSERT_EQ(results[c].size(), specs.size() * static_cast<size_t>(iters))
        << what;
    for (size_t i = 0; i < results[c].size(); ++i) {
      const size_t spec_idx = i % specs.size();
      ASSERT_TRUE(results[c][i].status.ok())
          << what << " client=" << c << " " << specs[spec_idx].name << ": "
          << results[c][i].status.ToString();
      ExpectMetricsEqual(base[spec_idx], results[c][i].metrics,
                         what + " client=" + std::to_string(c) + " " +
                             specs[spec_idx].name);
    }
  }
}

/// One query shape under shared-build test: its data and its variants.
struct Workload {
  std::string name;
  std::unique_ptr<TestDb> db;
  std::vector<QuerySpec> specs;
  QueryServiceOptions options;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  Workload star;
  star.name = "star";
  star.db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  star.specs = SpecVariants(*star.db, "d0_id");
  out.push_back(std::move(star));

  Workload snowflake;
  snowflake.name = "snowflake";
  snowflake.db =
      MakeSnowflakeDb({2, 2}, 15000, 400, 0.5, {0.4, 0.5}, 2088, /*zipf=*/0.4);
  snowflake.specs = SpecVariants(*snowflake.db, "b0_1_id");
  out.push_back(std::move(snowflake));

  for (Workload& w : out) {
    w.options.execution.exec.threads = 2;
    w.options.max_concurrent_queries = 4;
    w.options.max_workers_per_query = 2;
  }
  return out;
}

/// 8 clients x every workload x pool {1,2,4}: each build signature is
/// constructed exactly once per service lifetime no matter how many
/// clients race for it, and every shared result is byte-identical to its
/// cold threads==1 baseline.
TEST(SharedBuilds, EightClientsPinOneBuildPerSignature) {
  GlobalPoolGuard guard;
  constexpr int kClients = 8;

  for (Workload& w : MakeWorkloads()) {
    const std::vector<QueryMetrics> base = Baselines(*w.db, w.specs, w.options);

    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      const std::string what =
          w.name + " pool=" + std::to_string(pool);

      // One cold sequential pass fixes the per-pass cache traffic: L1
      // lookups, M distinct signatures (== misses, since nothing races).
      int64_t per_pass_lookups = 0;
      int64_t distinct_signatures = 0;
      {
        QueryService seq(&w.db->catalog, w.options);
        for (const QuerySpec& spec : w.specs) {
          const QueryResult r = seq.Execute(spec);
          ASSERT_TRUE(r.status.ok()) << what << " " << spec.name;
        }
        const BuildCacheStats s = seq.build_cache_stats();
        EXPECT_EQ(s.hits + s.misses, s.lookups) << what;
        per_pass_lookups = s.lookups;
        distinct_signatures = s.misses;
      }
      ASSERT_GT(distinct_signatures, 0) << what;

      QueryService service(&w.db->catalog, w.options);
      const auto results = RunClients(&service, w.specs, kClients, /*iters=*/1);
      ExpectAllMatchBaselines(results, base, w.specs, /*iters=*/1, what);

      const BuildCacheStats s = service.build_cache_stats();
      EXPECT_EQ(s.lookups, kClients * per_pass_lookups) << what;
      // The pin: 8 clients, 1 build per signature — everyone else shared.
      EXPECT_EQ(s.misses, distinct_signatures) << what;
      EXPECT_EQ(s.hits, s.lookups - distinct_signatures) << what;
      EXPECT_EQ(s.evictions, 0) << what;
      EXPECT_EQ(s.invalidations, 0) << what;
      EXPECT_EQ(s.entries, distinct_signatures) << what;
    }
  }
}

/// BumpVersion between passes flushes cached builds: the next pass
/// re-builds every signature yet still reproduces the baselines (the bump
/// marks a stats refresh, not a data change, so results are unchanged —
/// what's pinned is that stale entries are really dropped and rebuilt).
TEST(SharedBuilds, CatalogBumpInvalidatesAndRebuildsBetweenPasses) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);

  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  const std::vector<QuerySpec> specs = SpecVariants(*db, "d0_id");
  QueryServiceOptions options;
  options.execution.exec.threads = 2;
  const std::vector<QueryMetrics> base = Baselines(*db, specs, options);

  QueryService service(&db->catalog, options);
  for (size_t i = 0; i < specs.size(); ++i) {
    const QueryResult r = service.Execute(specs[i]);
    ASSERT_TRUE(r.status.ok());
    ExpectMetricsEqual(base[i], r.metrics, "pass1 " + specs[i].name);
  }
  const int64_t pass1_misses = service.build_cache_stats().misses;
  ASSERT_GT(pass1_misses, 0);

  db->catalog.BumpVersion();

  for (size_t i = 0; i < specs.size(); ++i) {
    const QueryResult r = service.Execute(specs[i]);
    ASSERT_TRUE(r.status.ok());
    ExpectMetricsEqual(base[i], r.metrics, "pass2 " + specs[i].name);
  }
  const BuildCacheStats s = service.build_cache_stats();
  EXPECT_GE(s.invalidations, 1);
  // Every signature was rebuilt under the new version — nothing stale
  // served from before the bump.
  EXPECT_EQ(s.misses, 2 * pass1_misses);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

/// A thread bumping the catalog version *while* clients execute: versioned
/// flights mean some builds are flushed mid-flight, handed to their bound
/// queries, and never published — but every served result still equals the
/// baseline (the data never changes; only cache residency does).
TEST(SharedBuilds, ConcurrentCatalogBumpsNeverBreakResults) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(4);

  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  const std::vector<QuerySpec> specs = SpecVariants(*db, "d0_id");
  QueryServiceOptions options;
  options.execution.exec.threads = 2;
  options.max_concurrent_queries = 4;
  options.max_workers_per_query = 2;
  const std::vector<QueryMetrics> base = Baselines(*db, specs, options);

  QueryService service(&db->catalog, options);
  std::atomic<bool> stop{false};
  std::thread bumper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      db->catalog.BumpVersion();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto results = RunClients(&service, specs, /*clients=*/4, /*iters=*/3);
  stop.store(true, std::memory_order_release);
  bumper.join();

  ExpectAllMatchBaselines(results, base, specs, /*iters=*/3, "bumped");
  const BuildCacheStats s = service.build_cache_stats();
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_GE(s.bytes, 0);
}

/// An armed filter_fill fault during shared builds: every query that
/// needed the poisoned build fails with the leader's internal status (no
/// hangs, no partial results), and once disarmed the same service rebuilds
/// cleanly and returns baseline-equal results — the failure left no
/// half-built entry behind.
TEST(SharedBuilds, FilterFillFaultFailsSharersThenRecovers) {
  GlobalPoolGuard guard;
  FaultGuard fault_guard;
  WorkerPool::ResetGlobal(2);

  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  const std::vector<QuerySpec> specs = SpecVariants(*db, "d0_id");
  QueryServiceOptions options;
  options.execution.exec.threads = 2;
  options.max_concurrent_queries = 4;
  options.max_workers_per_query = 2;
  const std::vector<QueryMetrics> base = Baselines(*db, specs, options);

  QueryService service(&db->catalog, options);
  FaultInjector::Global().Arm(FaultInjector::Site::kFilterFill, /*every=*/1);

  // 4 clients race for the same builds; every build's filter fill faults,
  // so leaders fail and waiters inherit the leader's status.
  const auto faulted =
      RunClients(&service, {specs[0]}, /*clients=*/4, /*iters=*/1);
  for (size_t c = 0; c < faulted.size(); ++c) {
    ASSERT_EQ(faulted[c].size(), 1u);
    const QueryResult& r = faulted[c][0];
    EXPECT_FALSE(r.status.ok()) << "client " << c;
    EXPECT_TRUE(r.status.IsInternal())
        << "client " << c << ": " << r.status.ToString();
    EXPECT_NE(r.status.message().find("injected fault"), std::string::npos)
        << "client " << c << ": " << r.status.ToString();
  }
  {
    const BuildCacheStats s = service.build_cache_stats();
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    EXPECT_EQ(s.entries, 0)
        << "a failed build must never be published";
  }

  FaultInjector::Global().DisarmAll();

  // Same service, no restart: the cache recovers and shares cleanly.
  const auto recovered =
      RunClients(&service, specs, /*clients=*/4, /*iters=*/1);
  ExpectAllMatchBaselines(recovered, base, specs, /*iters=*/1, "recovered");
  const BuildCacheStats s = service.build_cache_stats();
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_GT(s.entries, 0);
}

/// use_build_cache=false is a true bypass: concurrent parity holds with
/// every query building privately, and the stats surface stays zero.
TEST(SharedBuilds, CacheOffStillMatchesBaselinesWithZeroStats) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);

  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177, /*zipf=*/0.5);
  const std::vector<QuerySpec> specs = SpecVariants(*db, "d0_id");
  QueryServiceOptions options;
  options.execution.exec.threads = 2;
  options.max_concurrent_queries = 2;
  options.max_workers_per_query = 2;
  options.use_build_cache = false;
  const std::vector<QueryMetrics> base = Baselines(*db, specs, options);

  QueryService service(&db->catalog, options);
  const auto results = RunClients(&service, specs, /*clients=*/4, /*iters=*/2);
  ExpectAllMatchBaselines(results, base, specs, /*iters=*/2, "cache-off");

  const BuildCacheStats s = service.build_cache_stats();
  EXPECT_EQ(s.lookups, 0);
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
}

}  // namespace
}  // namespace bqo
