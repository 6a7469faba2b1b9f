// Morsel-parallel scan correctness: for every filter kind, and at the
// saturated and empty edges, a scan drained by N pipeline workers (each
// folding into its own partial aggregate) must produce the same
// grouped aggregate and the same merged FilterStats/OperatorStats as the
// single-threaded scan — parallelism is pure performance (and the
// per-worker accumulate + merge-once discipline keeps the counters exact;
// see metrics.h). Run under -DBQO_SANITIZE=thread in CI to pin
// race-freedom.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/exec/aggregate.h"
#include "src/exec/executor.h"
#include "src/exec/scan.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeStarDb;

struct ManualScanResult {
  uint64_t checksum = 0;  ///< AggregateOperator::ResultChecksum
  int64_t groups = 0;
  FilterStats filter_stats;
  int64_t rows_prefilter = 0;
  int64_t rows_out = 0;
};

/// Drain `table` through a ScanOperator probing `filter` on `key_column`
/// into SUM(measure) GROUP BY `key_column` on `threads` workers — the
/// compile shape ExecutePlan uses for a single-relation plan.
ManualScanResult RunManualScan(const Table* table,
                               std::unique_ptr<BitvectorFilter> filter,
                               const std::string& key_column, int threads) {
  FilterRuntime runtime;
  runtime.slots.resize(1);
  runtime.stats.assign(1, FilterStats{});
  runtime.stats[0].filter_id = 0;
  runtime.slots[0] = std::move(filter);

  ResolvedFilter rf;
  rf.filter_id = 0;
  const int key = table->ColumnIndex(key_column);
  const int measure = table->ColumnIndex("measure");
  rf.key_positions.push_back(key);
  OutputSchema schema({ColumnRef{0, key}, ColumnRef{0, measure}});

  AggSpec agg;
  agg.kind = AggKind::kSum;
  agg.sum_column = BoundColumn{0, "measure", measure};
  agg.has_group_by = true;
  agg.group_column = BoundColumn{0, key_column, key};

  auto scan = std::make_unique<ScanOperator>(
      table, nullptr, nullptr, schema, std::vector<ResolvedFilter>{rf},
      &runtime, "scan t");
  ScanOperator* scan_raw = scan.get();
  ExecConfig config;
  config.threads = threads;
  config.morsel_rows = 4096;  // several morsels per worker at test sizes
  AggregateOperator root(std::move(scan), agg, config);

  root.Open();
  root.Close();
  ManualScanResult result;
  result.checksum = root.ResultChecksum();
  result.groups = root.NumGroups();
  result.filter_stats = runtime.stats[0];
  result.rows_prefilter = scan_raw->stats().rows_prefilter;
  result.rows_out = scan_raw->stats().rows_out;
  return result;
}

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeStarDb(1, 50000, 500, {-1.0}, 4242, /*zipf=*/0.5);
    fact_ = db_->catalog.GetTable("f").value();
  }

  /// Filter admitting ~half the FK domain (built from the composite hashes
  /// the scan probes with), fresh per run so stats never leak across runs.
  std::unique_ptr<BitvectorFilter> MakeHalfDomainFilter(FilterKind kind) {
    FilterConfig config;
    config.kind = kind;
    auto filter = CreateFilter(config, 250);
    for (int64_t v = 0; v < 500; v += 2) {
      filter->Insert(HashComposite(&v, 1));
    }
    return filter;
  }

  std::unique_ptr<testing::TestDb> db_;
  const Table* fact_ = nullptr;
};

TEST_F(ParallelScanTest, ThreadedScanMatchesSingleThreadAllKinds) {
  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    const ManualScanResult base =
        RunManualScan(fact_, MakeHalfDomainFilter(kind), "d0_fk", 1);
    ASSERT_GT(base.groups, 0) << FilterKindName(kind);
    ASSERT_GT(base.rows_out, 0) << FilterKindName(kind);
    ASSERT_LT(base.rows_out, base.rows_prefilter) << FilterKindName(kind);
    for (int threads : {2, 4}) {
      const ManualScanResult par =
          RunManualScan(fact_, MakeHalfDomainFilter(kind), "d0_fk", threads);
      EXPECT_EQ(par.checksum, base.checksum)
          << FilterKindName(kind) << " threads=" << threads;
      EXPECT_EQ(par.groups, base.groups)
          << FilterKindName(kind) << " threads=" << threads;
      // Merged stats must equal the single-threaded counts exactly (the
      // probe/pass sets are partition-invariant).
      EXPECT_EQ(par.filter_stats.probed, base.filter_stats.probed);
      EXPECT_EQ(par.filter_stats.passed, base.filter_stats.passed);
      EXPECT_EQ(par.rows_prefilter, base.rows_prefilter);
      EXPECT_EQ(par.rows_out, base.rows_out);
    }
  }
}

/// A Bloom filter driven to saturation (a single block, every bit set)
/// admits every probe; the threaded drain must still count each probe
/// exactly once and fold every row.
TEST_F(ParallelScanTest, SaturatedBloomPassesEverythingUnderThreads) {
  auto make_saturated = [] {
    FilterConfig config;
    config.kind = FilterKind::kBlockedBloom;
    auto filter = CreateFilter(config, 1);
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) filter->Insert(rng.Next());
    return filter;
  };
  {
    auto probe = make_saturated();
    Rng rng(18);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(probe->MayContain(rng.Next()));
    }
  }
  const ManualScanResult base =
      RunManualScan(fact_, make_saturated(), "d0_fk", 1);
  EXPECT_EQ(base.rows_out, fact_->num_rows());
  EXPECT_EQ(base.filter_stats.probed, fact_->num_rows());
  EXPECT_EQ(base.filter_stats.passed, base.filter_stats.probed);
  const ManualScanResult par =
      RunManualScan(fact_, make_saturated(), "d0_fk", 4);
  EXPECT_EQ(par.checksum, base.checksum);
  EXPECT_EQ(par.groups, base.groups);
  EXPECT_EQ(par.filter_stats.probed, base.filter_stats.probed);
  EXPECT_EQ(par.filter_stats.passed, base.filter_stats.passed);
  EXPECT_EQ(par.rows_out, base.rows_out);
}

/// The opposite edge: a filter with nothing inserted rejects every probe,
/// so no worker folds a row, yet every probe is still counted.
TEST_F(ParallelScanTest, EmptyFilterRejectsEverythingUnderThreads) {
  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    FilterConfig config;
    config.kind = kind;
    for (int threads : {1, 4}) {
      const ManualScanResult r =
          RunManualScan(fact_, CreateFilter(config, 250), "d0_fk", threads);
      EXPECT_EQ(r.groups, 0) << FilterKindName(kind) << " threads=" << threads;
      EXPECT_EQ(r.rows_out, 0) << FilterKindName(kind);
      EXPECT_EQ(r.rows_prefilter, fact_->num_rows()) << FilterKindName(kind);
      EXPECT_EQ(r.filter_stats.probed, fact_->num_rows());
      EXPECT_EQ(r.filter_stats.passed, 0);
    }
  }
}

/// End-to-end: ExecutePlan with exec.threads in {1, 4} must agree on result
/// rows, the order-independent checksum, and every filter's merged counters,
/// for both filter kinds.
TEST(ParallelExecTest, PlanResultsAndFilterStatsMatchSingleThread) {
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    ExecutionOptions single;
    single.filter_config.kind = kind;
    single.agg.kind = AggKind::kSum;
    single.agg.sum_column = BoundColumn{0, "measure"};
    const QueryMetrics base = ExecutePlan(plan, single);

    ExecutionOptions parallel = single;
    parallel.exec.threads = 4;
    parallel.exec.morsel_rows = 2048;
    const QueryMetrics m = ExecutePlan(plan, parallel);

    EXPECT_EQ(m.result_rows, base.result_rows) << FilterKindName(kind);
    EXPECT_EQ(m.result_checksum, base.result_checksum) << FilterKindName(kind);
    EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << FilterKindName(kind);
    EXPECT_EQ(m.join_tuples, base.join_tuples) << FilterKindName(kind);
    ASSERT_EQ(m.filters.size(), base.filters.size());
    for (size_t i = 0; i < m.filters.size(); ++i) {
      EXPECT_EQ(m.filters[i].probed, base.filters[i].probed)
          << FilterKindName(kind) << " filter " << i;
      EXPECT_EQ(m.filters[i].passed, base.filters[i].passed)
          << FilterKindName(kind) << " filter " << i;
      EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
          << FilterKindName(kind) << " filter " << i;
    }
  }
}

/// The pipeline driver must also behave under tiny inputs: more workers than
/// morsels, and a single morsel spanning the whole selection.
TEST(ParallelExecTest, DegenerateShapes) {
  auto db = MakeStarDb(1, 300, 50, {0.5}, 99);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);

  ExecutionOptions single;
  const QueryMetrics base = ExecutePlan(plan, single);

  ExecutionOptions parallel;
  parallel.exec.threads = 8;           // far more workers than morsels
  parallel.exec.morsel_rows = 100000;  // one morsel takes everything
  const QueryMetrics m = ExecutePlan(plan, parallel);
  EXPECT_EQ(m.result_rows, base.result_rows);
  EXPECT_EQ(m.result_checksum, base.result_checksum);
}

}  // namespace
}  // namespace bqo
