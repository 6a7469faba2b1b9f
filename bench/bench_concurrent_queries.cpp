// Concurrent query-serving throughput: queries/sec through the
// QueryService (src/server/query_service.h) at client counts {1,2,4,8}.
//
// Setup: the TPC-DS-lite workload served by one QueryService per client
// count. A cold pass first populates the plan cache (and records per-query
// checksums); the measured pass then runs BQO_ROUNDS full sweeps of the
// query set with N client threads claiming queries off a shared cursor —
// the serving steady state, where optimization cost is amortized by the
// cache and all engine parallelism flows through the shared WorkerPool.
// Every run cross-checks each query's result checksum against the
// clients=1 run: concurrency must be pure scheduling (the engine parity
// invariants, docs/ARCHITECTURE.md).
//
// Prints one machine-readable JSON line per client count for the
// BENCH_*.json trajectory. Lines carry hardware_concurrency and
// pool_threads, and `valid` is false when the client count exceeds the
// hardware threads (flat scaling there is a container artifact, not a
// regression — README.md "thread-starved containers").
//
// After the scaling sweep, a **templated phase** replays the query set
// with per-request jittered predicate literals (the same shapes, moved
// constants) and reports the plan-shape cache's outcome counters —
// shape_hits / rebinds / verifications / reoptimizations — as a
// "templated_queries" JSON line; BQO_TEMPLATE_ROUNDS scales its sweep
// count (the CI cache-stress smoke raises it under TSan).
//
// Next a **shared-builds phase** exercises the cross-query BuildCache
// (src/server/build_cache.h): a cache-off single-client sweep fixes the
// reference checksums, then each client count replays the same sweep
// through a cache-on service. Parity is mandatory (the bench exits 1 on a
// mismatch), and the "shared_builds" JSON lines carry the cache counters —
// lookups / hits / builds / single_flight_waits / evictions / bytes — so
// the trajectory can assert that N clients still construct each build
// signature once. BQO_BUILD_CACHE / BQO_BUILD_CACHE_MB overlay the phase's
// cache configuration.
//
// An **observability-overhead phase** then measures per-query trace
// collection (src/obs/trace.h) on vs off at one client with a monitor
// thread dumping the service's metrics registry mid-run, and reports the
// qps delta as an "observability_overhead" JSON line. Under BQO_TRACE=off
// (the CI overhead-guard mode) the phase exits 1 if tracing costs more
// than BQO_OBS_MAX_OVERHEAD percent (default 5).
//
// Then an **overload phase** runs a mixed workload —
// the cheapest half of the query set as the "short" class, the most
// expensive as "long", plus a "deadline" class (long queries carrying a
// tight per-query deadline) — against a service with a bounded admission
// queue, and emits per-class p50/p99 latency plus the ServingStats
// shed/timeout/cancelled counters as one more JSON line. This is the
// resilience trajectory: the short class's tail must stay bounded while
// the deadline class times out and overload is shed, not queued forever.
//
// Knobs (env): BQO_SCALE (workload scale, default 1), BQO_LIMIT (queries
// used, default 24), BQO_ROUNDS (measured sweeps, default 3),
// BQO_MAX_CLIENTS (default 8), plus the engine knobs BQO_THREADS (per-query
// workers, default 1 here — serving scales across queries, not inside
// them), BQO_POOL_THREADS, BQO_MORSEL_ROWS. The serving
// knobs BQO_DEADLINE_MS / BQO_ADMISSION_QUEUE overlay the overload phase's
// service (ApplyServingEnvOverrides), and BQO_FAULT_SITES / BQO_FAULT_EVERY
// arm the fault injector for the **overload phase only** (the CI
// fault-smoke job runs exactly that: injected faults must degrade results,
// never hang or crash the bench). Checksum verification is skipped for the
// overload phase alone — a faulted query's results are void by contract —
// so the scaling, templated, and shared-builds phases always verify.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/simd.h"
#include "src/plan/predicate_shape.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "src/workload/runner.h"

namespace bqo {
namespace {

/// A positive whole-integer env knob, capped at `cap`; anything else keeps
/// `fallback` (so BQO_MAX_CLIENTS=8x does not run as 8).
int EnvInt(const char* name, int fallback, int cap = INT_MAX) {
  if (const auto v = EnvInt64(name); v && *v > 0) {
    return static_cast<int>(std::min<int64_t>(*v, cap));
  }
  return fallback;
}

struct SweepResult {
  int64_t wall_ns = 0;
  int64_t queries = 0;
  std::vector<uint64_t> checksums;  ///< per query index; cold pass only
};

/// Run `rounds` full sweeps of the first `limit` workload queries through
/// `service` with `clients` threads. Checksums are recorded only when
/// `rounds == 1` (the cold pass): there every global index maps to a
/// distinct query slot, so concurrent clients never write the same element
/// — with more rounds, round k+1 of query qi could race round k's write.
SweepResult RunSweep(QueryService* service, const Workload& workload,
                     size_t limit, int rounds, int clients) {
  SweepResult result;
  const bool record_checksums = rounds == 1;
  result.checksums.assign(record_checksums ? limit : 0, 0);
  const size_t total = limit * static_cast<size_t>(rounds);
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const size_t qi = i % limit;
        QueryResult r = service->Execute(workload.queries[qi]);
        if (record_checksums) {
          result.checksums[qi] = r.metrics.result_checksum;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.queries = static_cast<int64_t>(total);
  return result;
}

// ---- Templated-literal phase: the shape cache under varying constants ----

/// Scale every int64 predicate constant of `spec` by a few percent —
/// the decision-support template pattern the shape cache exists for. The
/// factor cycles a small fixed set keyed by `variant`, so each (query,
/// round) pair is deterministic while concurrent clients keep re-binding
/// different literals into the same cached shapes.
QuerySpec JitterSpecConstants(const QuerySpec& spec, int variant) {
  static constexpr double kFactors[] = {1.0, 1.05, 0.95, 1.08, 0.92};
  const double factor = kFactors[static_cast<size_t>(variant) % 5];
  if (factor == 1.0) return spec;
  QuerySpec out = spec;
  for (auto& rel : out.relations) {
    if (rel.predicate == nullptr) continue;
    std::vector<Value> constants = CollectPredicateConstants(rel.predicate);
    bool moved = false;
    for (Value& v : constants) {
      if (v.type() != DataType::kInt64) continue;
      v = Value(static_cast<int64_t>(
          static_cast<double>(v.AsInt64()) * factor));
      moved = true;
    }
    if (moved) {
      rel.predicate = RebindPredicateConstants(rel.predicate, constants);
    }
  }
  return out;
}

/// Serving steady state under templated traffic: one service, every query
/// arriving repeatedly with jittered literals. Emits the shape-cache
/// outcome counters — under a small jitter the sweep should be almost
/// all shape hits (exact + rebinds) with few re-optimizations; this is
/// also the CI cache-stress smoke's TSan workout (concurrent re-binds and
/// verifications of shared entries, and entry replacement).
void RunTemplatedPhase(const Workload& workload, size_t limit, int rounds,
                       int clients, int hw_threads, int pool_threads) {
  QueryServiceOptions options;
  options.optimizer.mode = OptimizerMode::kBqoShallow;
  options.execution.exec = ExecConfigFromEnv();
  options = ApplyServingEnvOverrides(options);
  QueryService service(workload.catalog.get(), options);

  const size_t total = limit * static_cast<size_t>(rounds);
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const size_t qi = i % limit;
        const int variant = static_cast<int>(i / limit + qi);
        (void)service.Execute(
            JitterSpecConstants(workload.queries[qi], variant));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  const PlanCacheStats cache = service.cache_stats();
  std::printf(
      "{\"bench\":\"templated_queries\",\"workload\":\"%s\","
      "\"clients\":%d,\"pool_threads\":%d,\"hardware_concurrency\":%d,"
      "\"queries\":%zu,\"wall_ms\":%.2f,\"qps\":%.1f,"
      "\"plan_cache_hit_rate\":%.3f,\"shape_hit_rate\":%.3f,"
      "\"shape_hits\":%lld,\"rebinds\":%lld,\"verifications\":%lld,"
      "\"reoptimizations\":%lld,\"simd_tier\":\"%s\",\"valid\":%s}\n",
      workload.name.c_str(), clients, pool_threads, hw_threads, total,
      static_cast<double>(wall_ns) / 1e6,
      static_cast<double>(total) / (static_cast<double>(wall_ns) / 1e9),
      cache.HitRate(), cache.ShapeHitRate(),
      static_cast<long long>(cache.shape_hits),
      static_cast<long long>(cache.rebinds),
      static_cast<long long>(cache.verifications),
      static_cast<long long>(cache.reoptimizations),
      SimdTierName(ActiveSimdTier()), clients <= hw_threads ? "true" : "false");
}

// ---- Shared-builds phase: the cross-query BuildCache under load ----

/// Cross-query build sharing must be pure memoization: a cache-off
/// single-client sweep fixes the reference checksums, then each client
/// count replays the identical sweep through a cache-on service and must
/// reproduce them exactly (return 1 on mismatch — this is a correctness
/// gate, not a soft warning). The JSON lines carry the BuildCache
/// counters; the pin for the trajectory is that `builds` (cache misses)
/// stays at one pass's worth of signatures regardless of client count —
/// every additional client shares, it never re-constructs.
int RunSharedBuildsPhase(const Workload& workload, size_t limit,
                         int max_clients, int hw_threads, int pool_threads) {
  QueryServiceOptions off_options;
  off_options.optimizer.mode = OptimizerMode::kBqoShallow;
  off_options.execution.exec = ExecConfigFromEnv();
  off_options.use_build_cache = false;
  QueryService reference(workload.catalog.get(), off_options);
  const SweepResult ref =
      RunSweep(&reference, workload, limit, /*rounds=*/1, /*clients=*/1);

  for (int clients = 1; clients <= max_clients; clients *= 2) {
    QueryServiceOptions options;
    options.optimizer.mode = OptimizerMode::kBqoShallow;
    options.execution.exec = ExecConfigFromEnv();
    // Honor only the build-cache env knobs here: this phase verifies
    // checksums, so the overload knobs (deadlines, bounded admission) that
    // legitimately void results must not leak into it.
    const QueryServiceOptions overlaid = ApplyServingEnvOverrides(options);
    options.use_build_cache = overlaid.use_build_cache;
    options.build_cache_mb = overlaid.build_cache_mb;
    QueryService service(workload.catalog.get(), options);

    const SweepResult r =
        RunSweep(&service, workload, limit, /*rounds=*/1, clients);
    if (r.checksums != ref.checksums) {
      std::fprintf(stderr,
                   "[bench] MISMATCH in shared_builds at clients=%d — "
                   "cache-on checksums differ from the cache-off reference\n",
                   clients);
      return 1;
    }

    const BuildCacheStats bc = service.build_cache_stats();
    const double wall_ms = static_cast<double>(r.wall_ns) / 1e6;
    std::printf(
        "{\"bench\":\"shared_builds\",\"workload\":\"%s\","
        "\"clients\":%d,\"pool_threads\":%d,\"hardware_concurrency\":%d,"
        "\"queries\":%lld,\"wall_ms\":%.2f,\"qps\":%.1f,"
        "\"cache_enabled\":%s,\"lookups\":%lld,\"hits\":%lld,"
        "\"builds\":%lld,\"single_flight_waits\":%lld,\"evictions\":%lld,"
        "\"bytes\":%lld,\"hit_rate\":%.3f,\"checksum_parity\":true,"
        "\"simd_tier\":\"%s\",\"valid\":%s}\n",
        workload.name.c_str(), clients, pool_threads, hw_threads,
        static_cast<long long>(r.queries), wall_ms,
        static_cast<double>(r.queries) /
            (static_cast<double>(r.wall_ns) / 1e9),
        options.use_build_cache ? "true" : "false",
        static_cast<long long>(bc.lookups), static_cast<long long>(bc.hits),
        static_cast<long long>(bc.misses),
        static_cast<long long>(bc.single_flight_waits),
        static_cast<long long>(bc.evictions), static_cast<long long>(bc.bytes),
        bc.HitRate(), SimdTierName(ActiveSimdTier()),
        clients <= hw_threads ? "true" : "false");
  }
  return 0;
}

// ---- Observability-overhead phase: tracing must be near-free ----

/// Qps with per-query trace collection on vs off — same service
/// configuration otherwise, single client, warm plan cache (the serving
/// steady state, where tracing's fixed per-query cost is most visible and
/// not drowned by optimizer time). While the traces-on sweep runs, a
/// monitor thread repeatedly DumpMetrics()s the live service: every export
/// must be a well-formed point-in-time read mid-flight — the registry's
/// snapshot contract, exercised under real traffic.
///
/// The JSON line always reports the on/off qps delta. The phase *fails*
/// (exit 1) only when BQO_TRACE=off is set — the dedicated overhead-guard
/// mode CI runs on a quiet machine — and the measured tracing overhead
/// exceeds BQO_OBS_MAX_OVERHEAD percent (default 5): span collection is a
/// handful of clock reads per query and must stay that way. Default runs
/// report without gating (shared machines make a hard 5% gate flaky).
int RunObservabilityPhase(const Workload& workload, size_t limit, int rounds,
                          int hw_threads, int pool_threads) {
  double qps[2] = {0.0, 0.0};  // [0] = traces off, [1] = traces on
  int64_t dumps = 0;
  for (int on = 0; on <= 1; ++on) {
    QueryServiceOptions options;
    options.optimizer.mode = OptimizerMode::kBqoShallow;
    options.execution.exec = ExecConfigFromEnv();
    options.collect_traces = on == 1;
    QueryService service(workload.catalog.get(), options);
    // Warm pass: populate the plan cache so the measured sweep is pure
    // serving steady state.
    (void)RunSweep(&service, workload, limit, /*rounds=*/1, /*clients=*/1);

    std::atomic<bool> done{false};
    std::thread monitor;
    if (on == 1) {
      monitor = std::thread([&service, &done, &dumps] {
        while (!done.load(std::memory_order_acquire)) {
          const std::string dump = service.DumpMetrics();
          if (dump.find("bqo_serving_served_total") == std::string::npos) {
            std::fprintf(stderr,
                         "[bench] malformed mid-run metrics dump\n");
            std::abort();
          }
          ++dumps;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
    const SweepResult r = RunSweep(&service, workload, limit, rounds,
                                   /*clients=*/1);
    done.store(true, std::memory_order_release);
    if (monitor.joinable()) monitor.join();
    qps[on] = static_cast<double>(r.queries) /
              (static_cast<double>(r.wall_ns) / 1e9);
  }

  const double overhead_pct =
      qps[0] > 0 ? 100.0 * (1.0 - qps[1] / qps[0]) : 0.0;
  const char* trace_env = std::getenv("BQO_TRACE");
  const bool gated =
      trace_env != nullptr &&
      (std::string(trace_env) == "off" || std::string(trace_env) == "0");
  const int max_overhead_pct = EnvInt("BQO_OBS_MAX_OVERHEAD", 5);

  std::printf(
      "{\"bench\":\"observability_overhead\",\"workload\":\"%s\","
      "\"clients\":1,\"pool_threads\":%d,\"hardware_concurrency\":%d,"
      "\"queries_per_config\":%lld,\"qps_traces_off\":%.1f,"
      "\"qps_traces_on\":%.1f,\"overhead_pct\":%.2f,"
      "\"max_overhead_pct\":%d,\"gated\":%s,\"metrics_dumps\":%lld,"
      "\"simd_tier\":\"%s\",\"valid\":true}\n",
      workload.name.c_str(), pool_threads, hw_threads,
      static_cast<long long>(limit) * rounds, qps[0], qps[1], overhead_pct,
      max_overhead_pct, gated ? "true" : "false",
      static_cast<long long>(dumps), SimdTierName(ActiveSimdTier()));

  if (gated && overhead_pct > static_cast<double>(max_overhead_pct)) {
    std::fprintf(stderr,
                 "[bench] FAIL: tracing overhead %.2f%% exceeds %d%% "
                 "(BQO_OBS_MAX_OVERHEAD) in BQO_TRACE=off guard mode\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}

// ---- Overload phase: mixed request classes under a bounded service ----

struct RequestClass {
  const char* name;
  std::vector<size_t> queries;  ///< workload indices this class draws from
  int64_t deadline_ms = 0;      ///< 0 = no per-request deadline
};

double PercentileMs(std::vector<int64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const size_t idx = std::min(
      ns.size() - 1,
      static_cast<size_t>(p * static_cast<double>(ns.size() - 1) + 0.5));
  return static_cast<double>(ns[idx]) / 1e6;
}

/// One flattened request: a query index, its class, and its deadline.
struct Request {
  size_t qi = 0;
  size_t cls = 0;
  int64_t deadline_ms = 0;
};

void RunOverloadPhase(const Workload& workload, size_t limit, int rounds,
                      int clients, int hw_threads) {
  // Classify by single-client cost: run each query once and split at the
  // median. The service for this calibration pass is unbounded.
  QueryServiceOptions calibrate_options;
  calibrate_options.optimizer.mode = OptimizerMode::kBqoShallow;
  calibrate_options.execution.exec = ExecConfigFromEnv();
  QueryService calibrate(workload.catalog.get(), calibrate_options);
  std::vector<std::pair<int64_t, size_t>> cost;  // (ns, query index)
  cost.reserve(limit);
  for (size_t qi = 0; qi < limit; ++qi) {
    const auto start = std::chrono::steady_clock::now();
    (void)calibrate.Execute(workload.queries[qi]);
    cost.emplace_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count(),
                      qi);
  }
  std::sort(cost.begin(), cost.end());
  const size_t half = std::max<size_t>(1, limit / 2);
  // The deadline is tuned to the split itself: tight enough that long
  // queries cannot finish inside it (their median single-client cost), so
  // the deadline class actually exercises expiry. BQO_DEADLINE_MS
  // overrides via ApplyServingEnvOverrides below as the service default.
  const int64_t deadline_ms = std::max<int64_t>(
      1, cost[limit / 2].first / 1'000'000 / 4);

  std::vector<RequestClass> classes(3);
  classes[0].name = "short";
  classes[1].name = "long";
  classes[2].name = "deadline";
  classes[2].deadline_ms = deadline_ms;
  for (size_t i = 0; i < limit; ++i) {
    (i < half ? classes[0] : classes[1]).queries.push_back(cost[i].second);
  }
  classes[2].queries = classes[1].queries;  // deadline class = long + bound

  // The serving configuration under test: bounded admission queue (shed
  // beyond it), admission waits capped, env knobs overlaid.
  QueryServiceOptions options;
  options.optimizer.mode = OptimizerMode::kBqoShallow;
  options.execution.exec = ExecConfigFromEnv();
  options.max_concurrent_queries = std::max(1, clients / 2);
  options.admission_queue_limit = clients;
  options.admission_timeout_ms = 250;
  options = ApplyServingEnvOverrides(options);
  QueryService service(workload.catalog.get(), options);

  // Flatten rounds x (every class x its queries) into one request list;
  // each slot's latency is written by exactly one client.
  std::vector<Request> requests;
  for (int r = 0; r < rounds; ++r) {
    for (size_t c = 0; c < classes.size(); ++c) {
      for (size_t qi : classes[c].queries) {
        requests.push_back(Request{qi, c, classes[c].deadline_ms});
      }
    }
  }
  std::vector<int64_t> latency_ns(requests.size(), 0);
  std::vector<int> status_code(requests.size(), 0);

  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        const Request& req = requests[i];
        QueryContext ctx;
        if (req.deadline_ms > 0) ctx.SetDeadlineAfterMs(req.deadline_ms);
        const auto t0 = std::chrono::steady_clock::now();
        const QueryResult r = service.Execute(workload.queries[req.qi], &ctx);
        latency_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        status_code[i] = static_cast<int>(r.status.code());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  // Per-class percentiles over ALL requests of the class (a shed request's
  // fast rejection is part of the latency story, not an outlier to drop).
  std::vector<std::vector<int64_t>> per_class(classes.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    per_class[requests[i].cls].push_back(latency_ns[i]);
  }

  const ServingStats stats = service.serving_stats();
  std::printf(
      "{\"bench\":\"concurrent_queries_overload\",\"workload\":\"%s\","
      "\"clients\":%d,\"max_concurrent\":%d,\"admission_queue\":%d,"
      "\"admission_timeout_ms\":%lld,\"deadline_ms\":%lld,"
      "\"hardware_concurrency\":%d,\"requests\":%zu,\"wall_ms\":%.2f,"
      "\"short_p50_ms\":%.2f,\"short_p99_ms\":%.2f,"
      "\"long_p50_ms\":%.2f,\"long_p99_ms\":%.2f,"
      "\"deadline_p50_ms\":%.2f,\"deadline_p99_ms\":%.2f,"
      "\"served\":%lld,\"shed\":%lld,\"timed_out\":%lld,"
      "\"cancelled\":%lld,\"failed\":%lld,\"faults_injected\":%lld,"
      "\"simd_tier\":\"%s\",\"valid\":%s}\n",
      workload.name.c_str(), clients, service.max_concurrent(),
      options.admission_queue_limit,
      static_cast<long long>(options.admission_timeout_ms),
      static_cast<long long>(options.default_deadline_ms > 0
                                 ? options.default_deadline_ms
                                 : deadline_ms),
      hw_threads, requests.size(), static_cast<double>(wall_ns) / 1e6,
      PercentileMs(per_class[0], 0.50), PercentileMs(per_class[0], 0.99),
      PercentileMs(per_class[1], 0.50), PercentileMs(per_class[1], 0.99),
      PercentileMs(per_class[2], 0.50), PercentileMs(per_class[2], 0.99),
      static_cast<long long>(stats.served), static_cast<long long>(stats.shed),
      static_cast<long long>(stats.timed_out),
      static_cast<long long>(stats.cancelled),
      static_cast<long long>(stats.failed),
      static_cast<long long>(FaultInjector::Global().injected()),
      SimdTierName(ActiveSimdTier()),
      clients <= hw_threads ? "true" : "false");

  // Accounting invariant: every request landed in exactly one bucket
  // (the calibration pass ran against a different service instance).
  if (stats.Total() != static_cast<int64_t>(requests.size())) {
    std::fprintf(stderr,
                 "[bench] WARNING: serving stats total %lld != requests %zu\n",
                 static_cast<long long>(stats.Total()), requests.size());
  }
}

}  // namespace
}  // namespace bqo

int main() {
  using namespace bqo;
  const int rounds = EnvInt("BQO_ROUNDS", 3);
  const int max_clients = EnvInt("BQO_MAX_CLIENTS", 8, kMaxEnvThreads);
  ExecConfig hw;
  hw.threads = 0;
  const int hw_threads = hw.ResolvedThreads();
  const int pool_threads = WorkerPool::Global().num_threads();

  Workload workload = MakeTpcdsLite(ScaleFromEnv());
  const size_t limit = std::min<size_t>(
      workload.queries.size(),
      static_cast<size_t>(EnvInt("BQO_LIMIT", 24)));

  std::fprintf(stderr,
               "[bench] concurrent serving: %s, %zu queries x %d rounds, "
               "pool %d, hw threads %d, up to %d clients\n",
               workload.name.c_str(), limit, rounds, pool_threads, hw_threads,
               max_clients);

  std::vector<uint64_t> base_checksums;
  double base_qps = 0;
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    QueryServiceOptions options;
    options.optimizer.mode = OptimizerMode::kBqoShallow;
    options.execution.exec = ExecConfigFromEnv();
    QueryService service(workload.catalog.get(), options);

    // Cold pass: populate the plan cache (unmeasured, single sweep) and
    // record per-query checksums for the cross-client verification.
    const SweepResult cold =
        RunSweep(&service, workload, limit, /*rounds=*/1, clients);
    // Measured pass: serving steady state, cache warm.
    const SweepResult r =
        RunSweep(&service, workload, limit, rounds, clients);

    if (clients == 1) {
      base_checksums = cold.checksums;
    } else if (cold.checksums != base_checksums) {
      std::fprintf(stderr,
                   "[bench] MISMATCH at clients=%d — result checksums "
                   "differ from clients=1\n",
                   clients);
      return 1;
    }

    const double wall_ms = static_cast<double>(r.wall_ns) / 1e6;
    const double qps =
        static_cast<double>(r.queries) / (static_cast<double>(r.wall_ns) / 1e9);
    if (clients == 1) base_qps = qps;
    const PlanCacheStats cache = service.cache_stats();
    std::printf(
        "{\"bench\":\"concurrent_queries\",\"workload\":\"%s\","
        "\"clients\":%d,\"pool_threads\":%d,\"workers_per_query\":%d,"
        "\"hardware_concurrency\":%d,\"queries\":%lld,\"wall_ms\":%.2f,"
        "\"qps\":%.1f,\"plan_cache_hit_rate\":%.3f,\"shape_hit_rate\":%.3f,"
        "\"shape_hits\":%lld,\"rebinds\":%lld,\"reoptimizations\":%lld,"
        "\"speedup_vs_1\":%.2f,\"simd_tier\":\"%s\",\"valid\":%s}\n",
        workload.name.c_str(), clients, pool_threads,
        service.workers_per_query(), hw_threads,
        static_cast<long long>(r.queries), wall_ms, qps, cache.HitRate(),
        cache.ShapeHitRate(), static_cast<long long>(cache.shape_hits),
        static_cast<long long>(cache.rebinds),
        static_cast<long long>(cache.reoptimizations),
        qps / base_qps, SimdTierName(ActiveSimdTier()),
        clients <= hw_threads ? "true" : "false");
  }

  // Templated-literal phase: same shapes, jittered constants — the
  // plan-shape cache's target traffic. BQO_TEMPLATE_ROUNDS scales the
  // sweep count for the CI cache-stress smoke.
  const int template_clients = std::max(2, std::min(max_clients, 4));
  RunTemplatedPhase(workload, limit, EnvInt("BQO_TEMPLATE_ROUNDS", rounds),
                    template_clients, hw_threads, pool_threads);

  // Shared-builds phase: cache-off reference checksums vs cache-on replays
  // at every client count — a correctness gate, so it runs before any
  // fault is armed.
  if (RunSharedBuildsPhase(workload, limit, max_clients, hw_threads,
                           pool_threads) != 0) {
    return 1;
  }

  // Observability-overhead phase: traces on vs off at one client, with
  // mid-run metrics dumps from a monitor thread. Gated (exit 1 past
  // BQO_OBS_MAX_OVERHEAD percent) only under BQO_TRACE=off — the CI
  // overhead-guard mode. Runs before any fault is armed: a faulted sweep's
  // qps is meaningless.
  if (RunObservabilityPhase(workload, limit, rounds, hw_threads,
                            pool_threads) != 0) {
    return 1;
  }

  // Fault-injection smoke mode (CI): BQO_FAULT_SITES arms the injector for
  // the overload phase only — every verifying phase has already run, so an
  // armed fault can degrade results without masking a real checksum
  // regression. Surviving without a hang or crash is the test.
  FaultInjector::Global().ConfigureFromEnv();

  // Overload/resilience phase: mixed classes against a bounded service.
  const int overload_clients = std::max(2, std::min(max_clients, 4));
  RunOverloadPhase(workload, limit, rounds, overload_clients, hw_threads);
  return 0;
}
