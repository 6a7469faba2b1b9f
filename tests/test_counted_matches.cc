// CountedMatches: a hash join on the aggregate's top pipeline whose output
// takes no build-side column emits each matched probe row once, with its
// match count as the row's multiplicity (src/exec/hash_join.h), and the
// aggregate folds the multiplicities (src/exec/aggregate.h).
//
// The fixtures join a probe table to duplicate-heavy build sides, many to
// many, so a join's output is many times its probe input: one key and two
// keys, pure and mixed buckets (src/exec/build_side.h), a residual filter
// on a counting join, counting joins stacked on the spine, and a counting
// join below a join that materializes build columns (also one that fills
// an output batch from input batches with and without multiplicities).
// Each query runs under COUNT(*), SUM or GROUP BY at threads {1, 4}, cold
// and again on a BuildCache hit. Its result must equal
// testing::ReferenceJoin (total, group count and checksum), and every
// join's and filter's counters the cold single-threaded run, while the
// fan-out join writes fewer rows (rows_emitted) than the logical tuples it
// reports (rows_out); EXPLAIN ANALYZE prints the physical count next to
// the logical one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/exec/build_side.h"
#include "src/exec/executor.h"
#include "src/obs/explain.h"
#include "src/plan/pushdown.h"
#include "src/server/build_cache.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::AddRow;
using ::bqo::testing::AddTable;

struct CountedRun {
  int64_t total = 0;
  uint64_t checksum = 0;
  int64_t num_groups = 0;
  int64_t rows_folded = 0;  ///< the aggregate's agg_rows_folded
  std::vector<FilterStats> filters;
  std::vector<OperatorStats> joins;  ///< hash joins, depth-first from the root
};

void CollectJoinStats(PhysicalOperator* op, std::vector<OperatorStats>* out) {
  if (op->stats().type == OperatorType::kHashJoin) out->push_back(op->stats());
  for (PhysicalOperator* child : op->children()) CollectJoinStats(child, out);
}

/// Execute `plan` under `agg` through CompilePlan. With `cache`, hash
/// joins share their build sides through it as served queries do.
CountedRun RunCounted(const Plan& plan, const AggSpec& agg, int threads,
                      FilterKind kind, BuildCache* cache) {
  ExecutionOptions options;
  options.filter_config.kind = kind;
  options.exec.threads = threads;
  options.exec.morsel_rows = 512;  // several morsels per scan
  options.agg = agg;
  FilterRuntime runtime;
  runtime.build_cache = cache;
  auto root = CompilePlan(plan, options, &runtime);
  root->Open();
  root->Close();
  CountedRun run{root->TotalValue(),        root->ResultChecksum(),
                 root->NumGroups(),         root->stats().agg_rows_folded,
                 runtime.stats,             {}};
  CollectJoinStats(root.get(), &run.joins);
  return run;
}

/// Check `plan` under the query's aggregate against the reference join,
/// then every (threads, cold/hit) run against the cold single-threaded
/// one, which it returns.
CountedRun ExpectCountedParity(const testing::TestDb& db, const Plan& plan,
                               FilterKind kind = FilterKind::kBlockedBloom) {
  const AggSpec& agg = db.spec.agg;
  const testing::ReferenceResult ref = testing::ReferenceJoin(db);
  EXPECT_GT(ref.count, 0);  // non-degenerate fixture
  const CountedRun base = RunCounted(plan, agg, 1, kind, nullptr);
  EXPECT_EQ(base.total, ref.total);
  EXPECT_EQ(base.checksum, ref.checksum);
  EXPECT_EQ(base.num_groups, static_cast<int64_t>(ref.groups.size()));
  EXPECT_EQ(base.rows_folded, ref.count);
  EXPECT_FALSE(base.joins.empty());
  if (base.joins.empty()) return base;
  EXPECT_EQ(base.joins[0].rows_out, ref.count);
  for (int threads : {1, 4}) {
    BuildCache cache(BuildCacheOptions{});
    for (const char* pass : {"cold", "hit"}) {
      const std::string what =
          std::string(pass) + " threads=" + std::to_string(threads);
      const CountedRun run = RunCounted(plan, agg, threads, kind, &cache);
      EXPECT_EQ(run.total, base.total) << what;
      EXPECT_EQ(run.checksum, base.checksum) << what;
      EXPECT_EQ(run.num_groups, base.num_groups) << what;
      EXPECT_EQ(run.rows_folded, base.rows_folded) << what;
      EXPECT_EQ(run.filters.size(), base.filters.size()) << what;
      for (size_t f = 0; f < std::min(run.filters.size(), base.filters.size());
           ++f) {
        const FilterStats& a = run.filters[f];
        const FilterStats& b = base.filters[f];
        EXPECT_EQ(a.created, b.created) << what << " f" << f;
        EXPECT_EQ(a.inserted, b.inserted) << what << " f" << f;
        EXPECT_EQ(a.probed, b.probed) << what << " f" << f;
        EXPECT_EQ(a.passed, b.passed) << what << " f" << f;
        EXPECT_EQ(a.size_bytes, b.size_bytes) << what << " f" << f;
      }
      EXPECT_EQ(run.joins.size(), base.joins.size()) << what;
      for (size_t j = 0; j < std::min(run.joins.size(), base.joins.size());
           ++j) {
        const OperatorStats& a = run.joins[j];
        const OperatorStats& b = base.joins[j];
        EXPECT_EQ(a.rows_out, b.rows_out) << what << " join " << j;
        EXPECT_EQ(a.rows_prefilter, b.rows_prefilter) << what << " join " << j;
        EXPECT_EQ(a.rows_emitted, b.rows_emitted) << what << " join " << j;
        EXPECT_EQ(a.probe_rows_in, b.probe_rows_in) << what << " join " << j;
        EXPECT_EQ(a.probe_rows_matched, b.probe_rows_matched)
            << what << " join " << j;
      }
    }
    // Every build side is a bare dimension scan: the second pass shares
    // each one the first pass built.
    const BuildCacheStats stats = cache.stats();
    EXPECT_GT(stats.hits, 0) << "threads=" << threads;
    EXPECT_EQ(stats.hits, stats.misses) << "threads=" << threads;
  }
  return base;
}

/// The right-deep plan in relation order (relation 0 the deepest probe
/// side), with bitvector filters pushed down; it points into `graph`.
Plan RightDeepInRelationOrder(const JoinGraph& graph) {
  std::vector<int> order(static_cast<size_t>(graph.num_relations()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Plan plan = BuildRightDeepPlan(graph, order);
  PushDownBitvectors(&plan);
  return plan;
}

AggSpec Count() { return AggSpec{}; }

AggSpec Sum(int rel, const std::string& column) {
  AggSpec agg;
  agg.kind = AggKind::kSum;
  agg.sum_column = BoundColumn{rel, column};
  return agg;
}

AggSpec GroupedBy(AggSpec agg, int rel, const std::string& column) {
  agg.has_group_by = true;
  agg.group_column = BoundColumn{rel, column};
  return agg;
}

/// Keys whose single-key hashes agree in the low 16 bits, so they share
/// one bucket of any table of at most 32768 rows.
std::vector<int64_t> CollidingKeys(size_t n) {
  std::vector<int64_t> keys;
  const auto low_bits = [](int64_t k) { return HashComposite(&k, 1) & 0xFFFF; };
  const uint64_t target = low_bits(1000);
  for (int64_t k = 1000; keys.size() < n; ++k) {
    if (low_bits(k) == target) keys.push_back(k);
  }
  return keys;
}

/// Buckets of more than one entry in the table built over `keys` (in
/// build order, one key per row): {pure, mixed}. Checks each bucket's
/// purity flag against its entries on the way.
std::pair<int, int> MultiEntryBuckets(const std::vector<int64_t>& keys) {
  JoinBuildSide side;
  side.width = 1;
  std::vector<uint64_t> hashes;
  for (int64_t k : keys) hashes.push_back(HashComposite(&k, 1));
  side.Bucketize(hashes);
  int pure = 0;
  int mixed = 0;
  for (size_t b = 0; b + 1 < side.buckets.size(); ++b) {
    const auto begin = static_cast<size_t>(side.buckets[b]);
    const auto end = static_cast<size_t>(side.buckets[b + 1]);
    if (begin == end) continue;
    bool one_hash = true;
    for (size_t i = begin; i < end; ++i) {
      one_hash = one_hash && side.entries[i].hash == side.entries[begin].hash;
    }
    EXPECT_EQ(side.entries[begin].pure_bucket, one_hash ? 1u : 0u)
        << "bucket " << b;
    if (end - begin < 2) continue;
    ++(one_hash ? pure : mixed);
  }
  return {pure, mixed};
}

/// p(k, g, measure) joins d(k, v) on k, many to many: d holds 12 to 72
/// rows of each key 0..39 and 4 to 12 rows of six keys that share one
/// bucket with each other; p also probes keys d lacks, in either kind of
/// bucket.
std::unique_ptr<testing::TestDb> MakeSingleKeyDb() {
  auto db = std::make_unique<testing::TestDb>();
  const std::vector<int64_t> colliding = CollidingKeys(8);
  Table* p = AddTable(db.get(), "p", {"k", "g", "measure"});
  for (int64_t i = 0; i < 3000; ++i) {
    const int64_t k = i % 3 == 0 ? colliding[static_cast<size_t>(i / 3) % 8]
                                 : (i * 7) % 45;
    AddRow(p, {k, i % 7, i % 23 - 11});
  }
  Table* d = AddTable(db.get(), "d", {"k", "v"});
  for (int64_t k = 0; k < 40; ++k) {
    for (int64_t j = 0; j < (k % 6 + 1) * 12; ++j) AddRow(d, {k, j % 5});
  }
  for (int64_t c = 0; c < 6; ++c) {
    for (int64_t j = 0; j < (c % 3 + 1) * 4; ++j) {
      AddRow(d, {colliding[static_cast<size_t>(c)], c});
    }
  }
  db->spec.relations = {{"p", "p", nullptr}, {"d", "d", nullptr}};
  db->spec.joins = {{"p", "k", "d", "k"}};
  return db;
}

/// p(k0, k1, g, measure) joins d0(k, v) on k0, many to many, and d1(id,
/// attr0, v) on k1, one to one, where d1's predicate keeps 18 of 30 ids.
std::unique_ptr<testing::TestDb> MakeTwoJoinDb() {
  auto db = std::make_unique<testing::TestDb>();
  Table* p = AddTable(db.get(), "p", {"k0", "k1", "g", "measure"});
  for (int64_t i = 0; i < 4000; ++i) {
    AddRow(p, {i % 50, (i * 3) % 31, i % 5, i % 17});
  }
  Table* d0 = AddTable(db.get(), "d0", {"k", "v"});
  for (int64_t k = 0; k < 40; ++k) {
    for (int64_t j = 0; j < (k % 5 + 1) * 6; ++j) AddRow(d0, {k, j % 3});
  }
  Table* d1 = AddTable(db.get(), "d1", {"id", "attr0", "v"});
  for (int64_t id = 0; id < 30; ++id) AddRow(d1, {id, id % 10, id % 4});
  db->spec.relations = {{"p", "p", nullptr},
                        {"d0", "d0", nullptr},
                        {"d1", "d1", Lt("attr0", 6)}};
  db->spec.joins = {{"p", "k0", "d0", "k"}, {"p", "k1", "d1", "id"}};
  return db;
}

TEST(CountedMatches, BatchMultiplicityColumnIsAddedOnDemand) {
  Batch batch;
  batch.Reset(1);
  EXPECT_EQ(batch.multiplicity(), nullptr);
  for (int r = 0; r < 3; ++r) batch.col(0)[r] = r;
  batch.num_rows = 3;
  int64_t* mult = batch.mutable_multiplicity();
  mult[batch.num_rows++] = 5;  // rows written before count once
  ASSERT_NE(batch.multiplicity(), nullptr);
  EXPECT_EQ(std::vector<int64_t>(batch.multiplicity(),
                                 batch.multiplicity() + batch.num_rows),
            (std::vector<int64_t>{1, 1, 1, 5}));
  batch.Reset(1);
  EXPECT_EQ(batch.multiplicity(), nullptr);
}

TEST(CountedMatches, SingleKeyPureAndMixedBuckets) {
  auto db = MakeSingleKeyDb();
  std::vector<int64_t> build_keys;
  const Table* d = db->catalog.GetTable("d").value();
  const Column* k = d->GetColumn("k").value();
  for (int64_t r = 0; r < d->num_rows(); ++r) {
    build_keys.push_back(k->GetInt64(r));
  }
  const auto [pure, mixed] = MultiEntryBuckets(build_keys);
  EXPECT_GT(pure, 0);
  EXPECT_GT(mixed, 0);

  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (const AggSpec& agg :
       {Count(), Sum(0, "measure"), GroupedBy(Count(), 0, "g"),
        GroupedBy(Sum(0, "measure"), 0, "g")}) {
    db->spec.agg = agg;
    const CountedRun base = ExpectCountedParity(*db, plan);
    ASSERT_EQ(base.joins.size(), 1u);
    // One row per matched probe row, each standing for its matches.
    EXPECT_EQ(base.joins[0].rows_emitted, base.joins[0].probe_rows_matched);
    EXPECT_LT(base.joins[0].rows_emitted, base.joins[0].rows_out);
  }
  // Grouped on a build column, the join materializes: one row per match.
  db->spec.agg = GroupedBy(Count(), 1, "v");
  const CountedRun base = ExpectCountedParity(*db, plan);
  ASSERT_EQ(base.joins.size(), 1u);
  EXPECT_EQ(base.joins[0].rows_emitted, base.joins[0].rows_out);
}

TEST(CountedMatches, ExplainShowsRowsEmittedWhereTheyDiffer) {
  auto db = MakeTwoJoinDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  // Grouped on d1.v, the root materializes and the d0 join counts.
  ExecutionOptions options;
  options.agg = GroupedBy(Count(), 2, "v");
  const QueryMetrics metrics = ExecutePlan(plan, options);
  const ExplainReport report = BuildExplainReport(
      plan, metrics, CoutBreakdown{}, options.filter_config);
  const std::string text = RenderExplainAnalyze(report);
  int joins = 0;
  for (const OperatorExplainRow& row : report.operators) {
    if (row.is_leaf) continue;
    ++joins;
    EXPECT_LT(row.actual_emitted, row.actual_rows) << row.label;
    EXPECT_NE(text.find(StringFormat(
                  "[emitted %lld rows]",
                  static_cast<long long>(row.actual_emitted))),
              std::string::npos)
        << row.label;
  }
  EXPECT_EQ(joins, 2);
}

TEST(CountedMatches, MultiKeyJoinCountsByComparingKeys) {
  // Pairs that match on one key only must not count; (3, 4) has 1500
  // build rows, more than a candidate stride.
  testing::TestDb db;
  Table* p = AddTable(&db, "p", {"x", "y", "g", "measure"});
  for (int64_t i = 0; i < 3000; ++i) {
    AddRow(p, {i % 23, (i * 7) % 11, i % 4, i % 31});
  }
  Table* d = AddTable(&db, "d", {"x", "y"});
  for (int64_t x = 0; x < 20; ++x) {
    for (int64_t y = 0; y < 10; ++y) {
      if ((x + y) % 3 == 0) continue;
      for (int64_t j = 0; j < ((x * y) % 4 + 1) * 5; ++j) AddRow(d, {x, y});
    }
  }
  for (int64_t j = 0; j < 1500; ++j) AddRow(d, {3, 4});
  db.spec.relations = {{"p", "p", nullptr}, {"d", "d", nullptr}};
  db.spec.joins = {{"p", "x", "d", "x"}, {"p", "y", "d", "y"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (const AggSpec& agg : {Count(), Sum(0, "measure"),
                             GroupedBy(Sum(0, "measure"), 0, "g")}) {
    db.spec.agg = agg;
    const CountedRun base = ExpectCountedParity(db, plan);
    ASSERT_EQ(base.joins.size(), 1u);
    EXPECT_EQ(base.joins[0].rows_emitted, base.joins[0].probe_rows_matched);
    EXPECT_LT(base.joins[0].rows_emitted, base.joins[0].rows_out);
  }
}

TEST(CountedMatches, CountingJoinsStackOnTheSpine) {
  // Both joins count: the root's probe input carries the lower join's
  // match counts, which it multiplies by its own.
  auto db = MakeTwoJoinDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (const AggSpec& agg :
       {Count(), Sum(0, "measure"), GroupedBy(Sum(0, "measure"), 0, "g")}) {
    db->spec.agg = agg;
    const CountedRun base = ExpectCountedParity(*db, plan);
    ASSERT_EQ(base.joins.size(), 2u);
    for (const OperatorStats& join : base.joins) {
      EXPECT_LT(join.rows_emitted, join.rows_out) << join.label;
    }
  }
}

TEST(CountedMatches, MaterializingJoinAboveACountingJoin) {
  // Grouped on d1.v, the root materializes a build column while the d0
  // join below it counts: each root output row carries its probe row's
  // multiplicity.
  auto db = MakeTwoJoinDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (const AggSpec& agg :
       {GroupedBy(Count(), 2, "v"), GroupedBy(Sum(0, "measure"), 2, "v")}) {
    db->spec.agg = agg;
    const CountedRun base = ExpectCountedParity(*db, plan);
    ASSERT_EQ(base.joins.size(), 2u);
    // joins[1], the d0 join, fans out; the root emits one row per match
    // of those rows, fewer than the tuples they stand for.
    EXPECT_EQ(base.joins[1].rows_emitted, base.joins[1].probe_rows_matched);
    EXPECT_LT(base.joins[1].rows_emitted, base.joins[1].rows_out);
    EXPECT_LT(base.joins[0].rows_emitted, base.joins[0].rows_out);
  }
}

TEST(CountedMatches, MaterializingJoinFillsOneBatchFromWeightedAndUnweighted) {
  // The d0 join counts: its output batches over p's first rows (keys with
  // 2 to 6 d0 rows each) carry multiplicities, and those over the 3400
  // rows after them (keys with exactly one d0 row) carry none. The root
  // materializes d1.v and keeps about 40% of its probe rows (no filter is
  // pushed down to p), so it fills one output batch from several input
  // batches of either kind; rows from an unweighted one must count once.
  testing::TestDb db;
  Table* p = AddTable(&db, "p", {"k0", "k1", "g", "measure"});
  for (int64_t i = 0; i < 4000; ++i) {
    const int64_t k0 = i < 600 ? i % 20 : 100 + i % 50;
    AddRow(p, {k0, (i * 7) % 31, i % 5, i % 13});
  }
  Table* d0 = AddTable(&db, "d0", {"k", "v"});
  for (int64_t k = 0; k < 20; ++k) {
    for (int64_t j = 0; j < k % 5 + 2; ++j) AddRow(d0, {k, j});
  }
  for (int64_t k = 100; k < 150; ++k) AddRow(d0, {k, 0});
  Table* d1 = AddTable(&db, "d1", {"id", "attr0", "v"});
  for (int64_t id = 0; id < 30; ++id) AddRow(d1, {id, id % 10, id % 4});
  db.spec.relations = {{"p", "p", nullptr},
                       {"d0", "d0", nullptr},
                       {"d1", "d1", Lt("attr0", 4)}};
  db.spec.joins = {{"p", "k0", "d0", "k"}, {"p", "k1", "d1", "id"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2});
  for (const AggSpec& agg :
       {GroupedBy(Count(), 2, "v"), GroupedBy(Sum(0, "measure"), 2, "v")}) {
    db.spec.agg = agg;
    const CountedRun base = ExpectCountedParity(db, plan);
    ASSERT_EQ(base.joins.size(), 2u);
    EXPECT_LT(base.joins[1].rows_emitted, base.joins[1].rows_out);
    EXPECT_LT(base.joins[0].rows_out, base.joins[1].rows_out);  // selective
  }
}

TEST(CountedMatches, StackedCountsPastInt64MaxWrapLikeTheFold) {
  // Five counting joins of 10^4 matches each: every probe row stands for
  // 10^20 tuples, past 2^64. Multiplicities, the aggregate and every
  // logical counter wrap modulo 2^64 (no signed overflow, which UBSan
  // builds abort on), so they equal uint64_t arithmetic on the true
  // counts.
  testing::TestDb db;
  Table* p = AddTable(&db, "p", {"k1", "k2", "k3", "k4", "k5", "measure"});
  const std::vector<int64_t> measures = {3, -7, 11};
  for (int64_t m : measures) AddRow(p, {0, 0, 0, 0, 0, m});
  db.spec.relations = {{"p", "p", nullptr}};
  for (int i = 1; i <= 5; ++i) {
    const std::string name = "d" + std::to_string(i);
    Table* d = AddTable(&db, name, {"k"});
    for (int j = 0; j < 10000; ++j) AddRow(d, {0});
    db.spec.relations.push_back({name, name, nullptr});
    db.spec.joins.push_back({"p", "k" + std::to_string(i), name, "k"});
  }
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  uint64_t per_row[6] = {1};  // per probe row, after j joins
  for (int j = 1; j <= 5; ++j) per_row[j] = per_row[j - 1] * 10000;
  uint64_t sum = 0;
  for (int64_t m : measures) sum += static_cast<uint64_t>(m) * per_row[5];
  const uint64_t rows = per_row[5] * measures.size();
  for (int threads : {1, 4}) {
    const CountedRun count = RunCounted(plan, Count(), threads,
                                        FilterKind::kBlockedBloom, nullptr);
    EXPECT_EQ(count.total, static_cast<int64_t>(rows));
    EXPECT_EQ(count.rows_folded, static_cast<int64_t>(rows));
    ASSERT_EQ(count.joins.size(), 5u);
    for (int j = 1; j <= 5; ++j) {
      // joins[0] is the root, the fifth join above p's scan.
      const OperatorStats& join = count.joins[static_cast<size_t>(5 - j)];
      EXPECT_EQ(join.rows_out,
                static_cast<int64_t>(per_row[j] * measures.size()))
          << "join " << j;
      EXPECT_EQ(join.rows_emitted, static_cast<int64_t>(measures.size()));
    }
    const CountedRun summed = RunCounted(plan, Sum(0, "measure"), threads,
                                         FilterKind::kBlockedBloom, nullptr);
    EXPECT_EQ(summed.total, static_cast<int64_t>(sum));
  }
}

TEST(CountedMatches, ResidualOnACountingJoinSumsMultiplicities) {
  // Move d1's filter (created at the root, keyed on p.k1) from p's scan up
  // to the d0 join as a residual: that join counts, so each candidate
  // stands for all of a probe row's d0 matches, and the filter's
  // probed/passed must count the (p, d0) pairs it judged.
  auto db = MakeTwoJoinDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = RightDeepInRelationOrder(graph.value());
  PlanNode* lower = plan.root->probe.get();
  ASSERT_FALSE(lower->IsLeaf());
  const int fid = plan.root->created_filter;
  ASSERT_GE(fid, 0);
  PlanFilter& filter = plan.filters[static_cast<size_t>(fid)];
  PlanNode* scan = plan.nodes[static_cast<size_t>(filter.applied_at)];
  ASSERT_TRUE(scan->IsLeaf());
  std::erase(scan->applied_filters, fid);
  lower->applied_filters.push_back(fid);
  filter.applied_at = lower->id;

  // Exact filters pass exactly the pairs whose k1 survives d1's predicate.
  const testing::ReferenceResult joined = testing::ReferenceJoin(*db);
  QuerySpec full = db->spec;
  db->spec.relations.pop_back();
  db->spec.joins.pop_back();
  const testing::ReferenceResult pairs = testing::ReferenceJoin(*db);
  db->spec = std::move(full);

  for (const AggSpec& agg : {Count(), GroupedBy(Sum(0, "measure"), 0, "g")}) {
    db->spec.agg = agg;
    const CountedRun base = ExpectCountedParity(*db, plan, FilterKind::kExact);
    ASSERT_EQ(base.joins.size(), 2u);
    const FilterStats& residual = base.filters[static_cast<size_t>(fid)];
    EXPECT_EQ(residual.probed, pairs.count);
    EXPECT_EQ(residual.passed, joined.count);
    EXPECT_EQ(base.joins[1].rows_prefilter, pairs.count);
    EXPECT_EQ(base.joins[1].rows_out, joined.count);
    EXPECT_LT(base.joins[1].rows_emitted, base.joins[1].rows_out);
  }
}

}  // namespace
}  // namespace bqo
