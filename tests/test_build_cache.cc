// BuildCache unit battery: the single-flight protocol and the accounting
// invariants of src/server/build_cache.h, driven directly (no engine).
//
//  * Metrics accounting — hits + misses == lookups on every path,
//    single_flight_waits counted once per waiter, bytes symmetric across
//    insert / evict / invalidate.
//  * Single-flight — N concurrent lookups of one signature run exactly one
//    builder and share one result object.
//  * Handoff — a cancelled leader abandons the flight; a waiter takes over
//    with its own builder and the cancelled query never poisons the entry.
//  * Fail-all — an internal builder error cancels every waiter with the
//    leader's status and leaves the cache clean for the next lookup.
//  * Versioning — a newer-version lookup flushes resident entries without
//    freeing ones still held; a build that outlives its catalog snapshot
//    is handed to its caller but never published.
//  * Eviction — the LRU walk respects the memory bound but never drops an
//    entry another query still holds.
//  * Registry — every outcome lands in a counter of the registry the cache
//    was given (monotonic, so exports support rate()), and entries/bytes
//    are gauges that follow residency.
//
// Run under -DBQO_SANITIZE=thread in CI (the build-cache-stress job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/build_side.h"
#include "src/server/build_cache.h"

namespace bqo {
namespace {

/// A distinguishable dummy build side (~`rows` * 8 bytes resident).
std::shared_ptr<const JoinBuildSide> MakeSide(int64_t rows, int64_t tag = 0) {
  auto side = std::make_shared<JoinBuildSide>();
  side->width = 1;
  side->rows.assign(static_cast<size_t>(rows), tag);
  side->buckets.assign(16, -1);
  side->bucket_mask = 15;
  return side;
}

void ExpectAccountingInvariant(const BuildCacheStats& s) {
  EXPECT_EQ(s.hits + s.misses, s.lookups)
      << "hits=" << s.hits << " misses=" << s.misses
      << " lookups=" << s.lookups;
  EXPECT_GE(s.bytes, 0);
  EXPECT_GE(s.entries, 0);
}

/// Spin until `cache` reports at least `waiters` parked lookups; used by
/// leader builders to make multi-thread resolutions deterministic.
bool AwaitWaiters(const BuildCache& cache, int64_t waiters) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().single_flight_waits < waiters) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(BuildCache, HitMissAndByteAccounting) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  QueryContext ctx;

  auto a = cache.GetOrBuild("sig-a", 1, &ctx, [] { return MakeSide(100); });
  ASSERT_NE(a, nullptr);
  auto a2 = cache.GetOrBuild("sig-a", 1, &ctx, [] { return MakeSide(100); });
  EXPECT_EQ(a2.get(), a.get());  // shared, not rebuilt
  auto b = cache.GetOrBuild("sig-b", 1, &ctx, [] { return MakeSide(50); });
  ASSERT_NE(b, nullptr);

  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 3);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.single_flight_waits, 0);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.bytes, a->SizeBytes() + b->SizeBytes());
  EXPECT_EQ(s.evictions, 0);
  ExpectAccountingInvariant(s);

  cache.Invalidate();
  const BuildCacheStats flushed = cache.stats();
  EXPECT_EQ(flushed.entries, 0);
  EXPECT_EQ(flushed.bytes, 0);  // symmetric: everything accounted back out
  EXPECT_EQ(flushed.invalidations, 1);
  ExpectAccountingInvariant(flushed);
  // The held results outlive the flush.
  EXPECT_EQ(a->rows.size(), 100u);
  EXPECT_EQ(b->rows.size(), 50u);
}

TEST(BuildCache, SingleFlightRunsOneBuilderAndCountsEachWaiterOnce) {
  constexpr int kThreads = 8;
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  std::atomic<int> builds{0};
  std::atomic<bool> leader_entered{false};

  std::vector<std::shared_ptr<const JoinBuildSide>> results(kThreads);
  std::vector<QueryContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Everyone but the leader enters only after the flight exists, so
      // all kThreads - 1 of them park (the flight is registered before the
      // builder runs).
      if (t != 0) {
        while (!leader_entered.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      results[static_cast<size_t>(t)] = cache.GetOrBuild(
          "sig", 1, &ctxs[static_cast<size_t>(t)],
          [&]() -> std::shared_ptr<const JoinBuildSide> {
            leader_entered.store(true, std::memory_order_release);
            // Resolve only once every other thread is parked: pins that a
            // waiter is counted once no matter how often its wait loop
            // wakes, and that all of them share this one build.
            EXPECT_TRUE(AwaitWaiters(cache, kThreads - 1));
            builds.fetch_add(1);
            return MakeSide(64);
          });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)].get(), results[0].get());
  }
  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, kThreads);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(s.single_flight_waits, kThreads - 1);
  EXPECT_EQ(s.entries, 1);
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, CancelledLeaderHandsOffToWaiter) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  QueryContext leader_ctx;
  QueryContext waiter_ctx;
  std::atomic<bool> leader_entered{false};
  std::atomic<int> waiter_builds{0};

  std::thread leader([&] {
    auto side = cache.GetOrBuild(
        "sig", 1, &leader_ctx,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          leader_entered.store(true, std::memory_order_release);
          EXPECT_TRUE(AwaitWaiters(cache, 1));
          // The leader's query dies mid-construction — a personal failure,
          // not a property of the build.
          leader_ctx.Cancel(Status::Cancelled("client disconnected"));
          return nullptr;
        });
    EXPECT_EQ(side, nullptr);
  });

  std::thread waiter([&] {
    while (!leader_entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    auto side = cache.GetOrBuild(
        "sig", 1, &waiter_ctx,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          waiter_builds.fetch_add(1);
          return MakeSide(32);
        });
    // Handoff: the waiter built with its own builder and was not failed.
    ASSERT_NE(side, nullptr);
    EXPECT_EQ(side->rows.size(), 32u);
  });
  leader.join();
  waiter.join();

  EXPECT_EQ(waiter_builds.load(), 1);
  EXPECT_TRUE(waiter_ctx.status().ok());
  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.misses, 2);  // cancelled leader + the waiter's own build
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.single_flight_waits, 1);
  EXPECT_EQ(s.entries, 1);  // the waiter's build was published
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, FailedBuildFailsAllWaitersWithLeaderStatusAndStaysClean) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  const Status injected = Status::Internal("injected fault: filter_fill");
  QueryContext leader_ctx;
  QueryContext waiter_ctx;
  std::atomic<bool> leader_entered{false};

  std::thread leader([&] {
    auto side = cache.GetOrBuild(
        "sig", 1, &leader_ctx,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          leader_entered.store(true, std::memory_order_release);
          EXPECT_TRUE(AwaitWaiters(cache, 1));
          // The construction itself failed: every query that needed this
          // build shares the error.
          leader_ctx.Cancel(injected);
          return nullptr;
        });
    EXPECT_EQ(side, nullptr);
  });

  std::thread waiter([&] {
    while (!leader_entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    auto side = cache.GetOrBuild(
        "sig", 1, &waiter_ctx,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          ADD_FAILURE() << "waiter must not build after a failed flight";
          return MakeSide(1);
        });
    EXPECT_EQ(side, nullptr);
  });
  leader.join();
  waiter.join();

  // The waiter carries the *leader's* status, not a generic cancellation.
  EXPECT_TRUE(waiter_ctx.status().IsInternal());
  EXPECT_EQ(waiter_ctx.status().message(), injected.message());

  // The failure left no entry and no flight behind: the next lookup starts
  // a clean construction and succeeds.
  QueryContext fresh_ctx;
  auto side =
      cache.GetOrBuild("sig", 1, &fresh_ctx, [] { return MakeSide(16); });
  ASSERT_NE(side, nullptr);
  EXPECT_TRUE(fresh_ctx.status().ok());

  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 3);
  EXPECT_EQ(s.misses, 3);  // failed leader, failed waiter, fresh build
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.single_flight_waits, 1);
  EXPECT_EQ(s.entries, 1);
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, NewerVersionFlushesWithoutFreeingHeldBuilds) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  QueryContext ctx;

  auto v1 = cache.GetOrBuild("sig", 1, &ctx, [] { return MakeSide(100, 1); });
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(cache.stats().entries, 1);

  // A lookup under version 2 flushes the resident version-1 entry and
  // builds fresh; the held v1 side stays valid (an executing plan's build
  // is never freed by invalidation — only the cache's reference drops).
  auto v2 = cache.GetOrBuild("sig", 2, &ctx, [] { return MakeSide(100, 2); });
  ASSERT_NE(v2, nullptr);
  EXPECT_NE(v2.get(), v1.get());
  EXPECT_EQ(v1->rows[0], 1);  // still readable
  EXPECT_EQ(v2->rows[0], 2);

  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, v2->SizeBytes());
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, MidFlightVersionBumpCompletesTheBuildButNeverPublishesIt) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  QueryContext ctx;
  std::shared_ptr<const JoinBuildSide> newer;

  // The catalog moves on *while* the version-1 build is in flight (the
  // nested lookup runs inside the builder, i.e. outside the cache lock —
  // exactly where a concurrent query would land).
  auto stale = cache.GetOrBuild(
      "sig-old", 1, &ctx, [&]() -> std::shared_ptr<const JoinBuildSide> {
        newer = cache.GetOrBuild("sig-new", 2, &ctx,
                                 [] { return MakeSide(10, 2); });
        return MakeSide(20, 1);
      });

  // The leader (and any same-version waiters) still get the finished
  // build — their plan was bound to version 1 and stays correct — but the
  // cache must not retain it past its snapshot.
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->rows[0], 1);
  ASSERT_NE(newer, nullptr);

  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1);  // only the version-2 build is resident
  EXPECT_EQ(s.bytes, newer->SizeBytes());
  EXPECT_EQ(s.invalidations, 1);
  ExpectAccountingInvariant(s);

  // A fresh version-2 lookup of the stale signature must rebuild.
  std::atomic<int> rebuilds{0};
  auto rebuilt = cache.GetOrBuild("sig-old", 2, &ctx, [&] {
    rebuilds.fetch_add(1);
    return MakeSide(20, 3);
  });
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilds.load(), 1);
  EXPECT_NE(rebuilt.get(), stale.get());
}

TEST(BuildCache, OlderVersionStragglerBuildsPrivatelyWithoutPublishing) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  QueryContext ctx;

  auto current =
      cache.GetOrBuild("sig", 5, &ctx, [] { return MakeSide(10, 5); });
  ASSERT_NE(current, nullptr);

  // A query still executing under version 3 must neither share the
  // version-5 entry nor displace it.
  auto straggler =
      cache.GetOrBuild("sig", 3, &ctx, [] { return MakeSide(10, 3); });
  ASSERT_NE(straggler, nullptr);
  EXPECT_EQ(straggler->rows[0], 3);
  EXPECT_NE(straggler.get(), current.get());

  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, current->SizeBytes());
  EXPECT_EQ(s.invalidations, 0);
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, EvictionRespectsBoundButNeverDropsInUseEntries) {
  // Bound fits roughly one side (1000 rows * 8B plus table overhead).
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/10000});
  QueryContext ctx;

  auto a = cache.GetOrBuild("a", 1, &ctx, [] { return MakeSide(1000, 1); });
  ASSERT_NE(a, nullptr);

  // Insert B while A is still held: A is in use (external reference), so
  // the eviction walk must skip it even though the bound is exceeded.
  auto b = cache.GetOrBuild("b", 1, &ctx, [] { return MakeSide(1000, 2); });
  ASSERT_NE(b, nullptr);
  {
    const BuildCacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 2);
    EXPECT_GT(s.bytes, 10000);  // transiently over: everything is in use
    EXPECT_EQ(s.evictions, 0);
  }
  // A remains servable while held.
  auto a2 = cache.GetOrBuild("a", 1, &ctx, [] {
    ADD_FAILURE() << "in-use entry was evicted";
    return MakeSide(1, 9);
  });
  EXPECT_EQ(a2.get(), a.get());

  // Release A and B, then insert C: now the LRU tail is evictable and the
  // bound is enforced, with bytes symmetric on the way out.
  a.reset();
  a2.reset();
  b.reset();
  auto c = cache.GetOrBuild("c", 1, &ctx, [] { return MakeSide(1000, 3); });
  ASSERT_NE(c, nullptr);
  const BuildCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0);
  EXPECT_LE(s.bytes, 10000);
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, ZeroBoundCachesNothingButStillSingleFlights) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/0});
  QueryContext ctx;
  std::atomic<int> builds{0};

  for (int i = 0; i < 2; ++i) {
    auto side = cache.GetOrBuild("sig", 1, &ctx, [&] {
      builds.fetch_add(1);
      return MakeSide(8);
    });
    ASSERT_NE(side, nullptr);
  }
  EXPECT_EQ(builds.load(), 2);  // nothing resident: every lookup builds
  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
  ExpectAccountingInvariant(s);
}

TEST(BuildCache, CancelledWaiterLeavesWithoutAResult) {
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  QueryContext leader_ctx;
  QueryContext waiter_ctx;
  std::atomic<bool> leader_entered{false};
  std::atomic<bool> waiter_done{false};

  std::thread leader([&] {
    auto side = cache.GetOrBuild(
        "sig", 1, &leader_ctx,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          leader_entered.store(true, std::memory_order_release);
          EXPECT_TRUE(AwaitWaiters(cache, 1));
          // Cancel the *waiter* while it is parked; it must leave promptly
          // (its own deadline/client, not this flight's outcome).
          waiter_ctx.Cancel(Status::Cancelled("waiter gave up"));
          const auto deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(10);
          while (!waiter_done.load(std::memory_order_acquire)) {
            if (std::chrono::steady_clock::now() > deadline) break;
            std::this_thread::yield();
          }
          EXPECT_TRUE(waiter_done.load(std::memory_order_acquire))
              << "cancelled waiter stayed parked behind a live flight";
          return MakeSide(8);
        });
    EXPECT_NE(side, nullptr);  // the leader itself is unaffected
  });

  std::thread waiter([&] {
    while (!leader_entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    auto side = cache.GetOrBuild(
        "sig", 1, &waiter_ctx,
        [&]() -> std::shared_ptr<const JoinBuildSide> {
          ADD_FAILURE() << "cancelled waiter must not become a leader";
          return MakeSide(1);
        });
    EXPECT_EQ(side, nullptr);
    waiter_done.store(true, std::memory_order_release);
  });
  leader.join();
  waiter.join();

  EXPECT_TRUE(waiter_ctx.status().IsCancelled());
  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.misses, 2);  // leader built; waiter left empty-handed
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.entries, 1);
  ExpectAccountingInvariant(s);
}

/// The cache's metrics, by name, as the registry exports them.
std::map<std::string, MetricSnapshot> BuildCacheMetrics(
    const MetricsRegistry& registry) {
  std::map<std::string, MetricSnapshot> out;
  for (MetricSnapshot& m : registry.Snapshot()) {
    if (m.name.rfind("bqo_build_cache_", 0) == 0) out[m.name] = std::move(m);
  }
  return out;
}

TEST(BuildCache, CountsIntoTheGivenRegistry) {
  MetricsRegistry registry;
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20}, &registry);
  QueryContext ctx;

  auto a = cache.GetOrBuild("sig-a", 1, &ctx, [] { return MakeSide(100); });
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(cache.GetOrBuild("sig-a", 1, &ctx, [] { return MakeSide(1); }),
            a);

  std::map<std::string, MetricSnapshot> m = BuildCacheMetrics(registry);
  ASSERT_EQ(m.size(), 8u);
  for (const char* name :
       {"bqo_build_cache_lookups", "bqo_build_cache_hits",
        "bqo_build_cache_misses", "bqo_build_cache_single_flight_waits",
        "bqo_build_cache_evictions", "bqo_build_cache_invalidations"}) {
    EXPECT_EQ(m[name].kind, MetricSnapshot::Kind::kCounter) << name;
  }
  EXPECT_EQ(m["bqo_build_cache_entries"].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_EQ(m["bqo_build_cache_bytes"].kind, MetricSnapshot::Kind::kGauge);
  EXPECT_EQ(m["bqo_build_cache_lookups"].value, 2);
  EXPECT_EQ(m["bqo_build_cache_hits"].value, 1);
  EXPECT_EQ(m["bqo_build_cache_misses"].value, 1);
  EXPECT_EQ(m["bqo_build_cache_single_flight_waits"].value, 0);
  EXPECT_EQ(m["bqo_build_cache_entries"].value, 1);
  EXPECT_EQ(m["bqo_build_cache_bytes"].value, a->SizeBytes());

  cache.Invalidate();
  m = BuildCacheMetrics(registry);
  EXPECT_EQ(m["bqo_build_cache_invalidations"].value, 1);
  EXPECT_EQ(m["bqo_build_cache_entries"].value, 0);
  EXPECT_EQ(m["bqo_build_cache_bytes"].value, 0);

  // stats() reads the same numbers back.
  const BuildCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, m["bqo_build_cache_lookups"].value);
  EXPECT_EQ(s.hits, m["bqo_build_cache_hits"].value);
  EXPECT_EQ(s.misses, m["bqo_build_cache_misses"].value);
  EXPECT_EQ(s.invalidations, m["bqo_build_cache_invalidations"].value);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
}

TEST(BuildCache, CountersNeverDecreaseWhileGaugesFollowResidency) {
  MetricsRegistry registry;
  // Bound fits roughly one side, so every new signature evicts the last.
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/10000}, &registry);
  QueryContext ctx;

  std::map<std::string, MetricSnapshot> prev = BuildCacheMetrics(registry);
  auto expect_monotonic = [&](const std::string& step) {
    const std::map<std::string, MetricSnapshot> now =
        BuildCacheMetrics(registry);
    for (const auto& [name, snap] : now) {
      if (snap.kind != MetricSnapshot::Kind::kCounter) continue;
      EXPECT_GE(snap.value, prev[name].value) << name << " after " << step;
    }
    const BuildCacheStats s = cache.stats();
    EXPECT_EQ(now.at("bqo_build_cache_entries").value, s.entries) << step;
    EXPECT_EQ(now.at("bqo_build_cache_bytes").value, s.bytes) << step;
    prev = now;
  };

  for (int i = 0; i < 4; ++i) {
    const std::string sig = "sig-" + std::to_string(i);
    // Results are dropped at once, so nothing is held and eviction runs.
    ASSERT_NE(cache.GetOrBuild(sig, 1, &ctx, [i] { return MakeSide(1000, i); }),
              nullptr);
    expect_monotonic("insert " + sig);
  }
  EXPECT_GE(prev["bqo_build_cache_evictions"].value, 3);
  EXPECT_EQ(prev["bqo_build_cache_entries"].value, 1);

  // A newer catalog version flushes the resident entry (one invalidation):
  // the gauges drop, the counters keep their totals.
  ASSERT_NE(cache.GetOrBuild("sig-new", 2, &ctx, [] { return MakeSide(10); }),
            nullptr);
  expect_monotonic("version bump");
  EXPECT_EQ(prev["bqo_build_cache_invalidations"].value, 1);
  EXPECT_EQ(prev["bqo_build_cache_lookups"].value, 5);
  EXPECT_EQ(prev["bqo_build_cache_misses"].value, 5);
  EXPECT_EQ(prev["bqo_build_cache_entries"].value, 1);

  cache.Invalidate();
  expect_monotonic("invalidate");
  EXPECT_EQ(prev["bqo_build_cache_invalidations"].value, 2);
  EXPECT_EQ(prev["bqo_build_cache_entries"].value, 0);
  EXPECT_EQ(prev["bqo_build_cache_bytes"].value, 0);
}

}  // namespace
}  // namespace bqo
