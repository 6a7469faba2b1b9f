// Whole-plan pipeline-parallel throughput: wall time for ExecutePlan over a
// multi-join star query at 1..N workers — parallel hash-join builds,
// per-worker bitvector-filter partials merged via MergeFrom, and the
// scan -> probe -> probe chain drained wide by the aggregate, each worker
// folding into its own partial that the aggregate merges (one pipeline
// driver at every thread count; see src/exec/pipeline.h). Both aggregate
// shapes run:
// ungrouped SUM (scalar partials) and grouped SUM (hash-map partials, the
// merge-heavy case). Verifies on every run that the result rows, the
// checksum, and the merged filter stats are identical across thread
// counts — the speedup must be free of semantic drift.
//
// Prints one machine-readable JSON line per (filter kind, agg shape,
// thread count) for the BENCH_*.json trajectory. Every line carries
// hardware_concurrency, and `valid` is false when the worker count exceeds
// the hardware threads (flat speedups there are a container artifact, not
// a regression).
//
// Knobs: BQO_FACT_ROWS (default 2M), BQO_DIM_ROWS (default 200k),
// BQO_MAX_THREADS (default: hardware concurrency, at least 4).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "src/common/simd.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/exec/executor.h"
#include "src/expr/expr.h"
#include "src/plan/pushdown.h"
#include "src/workload/datagen.h"
#include "src/workload/query.h"

namespace bqo {
namespace {

// Env knobs parse as whole integers only (a non-integer keeps the default);
// the thread count is capped at kMaxEnvThreads.
int64_t EnvRows(const char* name, int64_t fallback) {
  if (const auto rows = EnvInt64(name); rows && *rows > 0) return *rows;
  return fallback;
}

int MaxThreadsFromEnv() {
  if (const auto t = EnvInt64("BQO_MAX_THREADS"); t && *t > 0) {
    return static_cast<int>(std::min<int64_t>(*t, kMaxEnvThreads));
  }
  ExecConfig hw;
  hw.threads = 0;
  return std::max(4, hw.ResolvedThreads());
}

struct BenchDb {
  Catalog catalog;
  QuerySpec spec;
};

/// 3-dimension PKFK star with selective dimension predicates, sized so the
/// dimension builds take the parallel filter-fill path (>= 8192 keys).
void BuildStar(BenchDb* db, int64_t fact_rows, int64_t dim_rows) {
  Rng rng(7);
  TableGenSpec fact;
  fact.name = "f";
  fact.rows = fact_rows;
  fact.with_pk = false;
  fact.with_label = false;
  db->spec.name = "star";
  db->spec.relations.push_back({"f", "f", nullptr});
  const double sels[3] = {0.3, 0.6, 0.15};
  for (int i = 0; i < 3; ++i) {
    TableGenSpec dim;
    dim.name = StringFormat("d%d", i);
    dim.rows = dim_rows;
    dim.with_label = false;
    GenerateTable(&db->catalog, dim, &rng);
    fact.fks.push_back(FkSpec{StringFormat("d%d_fk", i), dim.name,
                              dim.name + "_id", 0.5, 0.0});
    db->spec.relations.push_back(
        {dim.name, dim.name,
         Lt("attr0", static_cast<int64_t>(sels[i] * 1000.0))});
    db->spec.joins.push_back({"f", StringFormat("d%d_fk", i), dim.name,
                              StringFormat("d%d_id", i)});
  }
  GenerateTable(&db->catalog, fact, &rng);
}

struct RunResult {
  int64_t wall_ns = 0;
  uint64_t checksum = 0;
  int64_t result_rows = 0;
  std::vector<int64_t> probed, passed, inserted;
};

RunResult RunOnce(const Plan& plan, FilterKind kind, bool grouped,
                  int threads) {
  ExecutionOptions options;
  options.filter_config.kind = kind;
  options.exec.threads = threads;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  if (grouped) {
    // Group on a fact FK: ~dim_rows groups, so every worker's partial map
    // is large and the sink merge is exercised for real.
    options.agg.has_group_by = true;
    options.agg.group_column = BoundColumn{0, "d0_fk"};
  }
  const QueryMetrics m = ExecutePlan(plan, options);
  RunResult r;
  r.wall_ns = m.total_ns;
  r.checksum = m.result_checksum;
  r.result_rows = m.result_rows;
  for (const FilterStats& fs : m.filters) {
    r.probed.push_back(fs.probed);
    r.passed.push_back(fs.passed);
    r.inserted.push_back(fs.inserted);
  }
  return r;
}

}  // namespace
}  // namespace bqo

int main() {
  using namespace bqo;
  const int64_t fact_rows = EnvRows("BQO_FACT_ROWS", 2 * 1000 * 1000);
  const int64_t dim_rows = EnvRows("BQO_DIM_ROWS", 200 * 1000);
  const int max_threads = MaxThreadsFromEnv();
  ExecConfig hw;
  hw.threads = 0;

  BenchDb db;
  BuildStar(&db, fact_rows, dim_rows);
  auto graph = BuildJoinGraph(db.catalog, db.spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "[bench] graph: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  std::fprintf(stderr,
               "[bench] pipeline parallel: %lld fact rows, %lld dim rows, "
               "hw threads %d, up to %d workers\n",
               static_cast<long long>(fact_rows),
               static_cast<long long>(dim_rows), hw.ResolvedThreads(),
               max_threads);

  constexpr int kReps = 3;  // min-of-k, warm cache
  for (FilterKind kind : {FilterKind::kBlockedBloom, FilterKind::kExact}) {
    for (const bool grouped : {false, true}) {
      RunResult base;
      double base_ns = 0;
      for (int threads = 1; threads <= max_threads; threads *= 2) {
        RunResult best;
        best.wall_ns = INT64_MAX;
        for (int rep = 0; rep < kReps; ++rep) {
          RunResult r = RunOnce(plan, kind, grouped, threads);
          if (r.wall_ns < best.wall_ns) best = r;
        }
        if (threads == 1) {
          base = best;
          base_ns = static_cast<double>(best.wall_ns);
        } else if (best.checksum != base.checksum ||
                   best.result_rows != base.result_rows ||
                   best.probed != base.probed || best.passed != base.passed ||
                   best.inserted != base.inserted) {
          std::fprintf(stderr,
                       "[bench] MISMATCH at kind=%s agg=%s threads=%d — "
                       "results or merged stats differ from threads=1\n",
                       FilterKindName(kind), grouped ? "sum_group" : "sum",
                       threads);
          return 1;
        }
        std::printf(
            "{\"bench\":\"pipeline_parallel\",\"kind\":\"%s\",\"agg\":\"%s\","
            "\"threads\":%d,\"hardware_concurrency\":%d,\"fact_rows\":%lld,"
            "\"result_rows\":%lld,\"wall_ms\":%.2f,\"speedup_vs_1\":%.2f,"
            "\"simd_tier\":\"%s\",\"valid\":%s}\n",
            FilterKindName(kind), grouped ? "sum_group" : "sum", threads,
            hw.ResolvedThreads(), static_cast<long long>(fact_rows),
            static_cast<long long>(best.result_rows),
            static_cast<double>(best.wall_ns) / 1e6,
            base_ns / static_cast<double>(best.wall_ns),
            SimdTierName(ActiveSimdTier()),
            threads <= hw.ResolvedThreads() ? "true" : "false");
      }
    }
  }
  return 0;
}
