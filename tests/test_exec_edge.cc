// Execution engine edge cases: empty inputs, fully filtered scans,
// duplicate runs crossing batch boundaries, wide composite keys, and
// group-by paths.
//
// RightSizedScratch covers the composite (two-key) filter paths of the
// operator scratch, which is sized to the filters an operator applies
// (src/exec/batch.h): a scan probing a two-key pushed-down filter next to
// a one-key one, and a hash join whose two-key residual filter hashes its
// own keys instead of reusing the probe hash. Each runs at threads {1, 4}
// under both SIMD tiers; totals must equal testing::ReferenceJoin, and the
// checksum, every FilterStats field and every join's row counters the
// single-threaded scalar run.
//
// ProbePath runs the same differential over the hash join's probe loop:
// a bucket run longer than the candidate stride, distinct keys sharing a
// bucket, a two-key join, a join with and without a residual filter, and
// an empty build side. DeferredProbeScratch runs it, cold and on a
// BuildCache hit, over joins that no probe row (or only a late one)
// reaches, and pins a Batch's storage across Resets. AggFold pins the
// per-batch aggregate fold to a naive row loop, and a weighted batch's
// fold to that of its expanded copy near INT64_MAX.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/simd.h"
#include "src/exec/executor.h"
#include "src/plan/pushdown.h"
#include "src/server/build_cache.h"
#include "src/stats/estimated_cost.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::AddRow;
using ::bqo::testing::AddTable;
using ::bqo::testing::MakeStarDb;

TEST(ExecEdge, PredicateSelectingNothingYieldsEmptyJoin) {
  auto db = MakeStarDb(2, 500, 50, {0.5, 0.5}, 3);
  // Overwrite d0's predicate with an impossible one.
  db->spec.relations[1].predicate = Lt("attr0", -1);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2});
  PushDownBitvectors(&plan);
  const QueryMetrics m = ExecutePlan(plan);
  int64_t root_rows = -1;
  for (const auto& op : m.operators) {
    if (op.plan_node_id == 0) root_rows = op.rows_out;
  }
  EXPECT_EQ(root_rows, 0);
  EXPECT_EQ(m.result_rows, 1);  // COUNT(*) still emits one row (0)
}

TEST(ExecEdge, EmptyBuildSideShortCircuitsViaFilter) {
  auto db = MakeStarDb(2, 2000, 50, {0.5, 0.5}, 3);
  db->spec.relations[2].predicate = Lt("attr0", -1);  // d1 empty
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2});
  PushDownBitvectors(&plan);
  ExecutionOptions options;
  options.filter_config.kind = FilterKind::kExact;
  const QueryMetrics m = ExecutePlan(plan, options);
  // The empty dimension's filter eliminates every fact row at the scan.
  for (const auto& op : m.operators) {
    if (op.label == "scan f") EXPECT_EQ(op.rows_out, 0);
  }
}

TEST(ExecEdge, DuplicateChainsCrossBatchBoundaries) {
  // One build key duplicated far beyond kBatchSize: a single probe row
  // must emit >1024 outputs, exercising mid-chain batch breaks.
  testing::TestDb db;
  Table* dup = db.catalog
                   .CreateTable("dup", {{"k", DataType::kInt64},
                                        {"v", DataType::kInt64}})
                   .ValueOrDie();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        dup->AppendRow({Value(int64_t{7}), Value(int64_t{i})}).ok());
  }
  Table* probe = db.catalog
                     .CreateTable("probe", {{"k", DataType::kInt64}})
                     .ValueOrDie();
  ASSERT_TRUE(probe->AppendRow({Value(int64_t{7})}).ok());
  ASSERT_TRUE(probe->AppendRow({Value(int64_t{8})}).ok());

  db.spec.relations = {{"probe", "probe", nullptr}, {"dup", "dup", nullptr}};
  db.spec.joins = {{"probe", "k", "dup", "k"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);
  const QueryMetrics m = ExecutePlan(plan);
  int64_t root_rows = -1;
  for (const auto& op : m.operators) {
    if (op.plan_node_id == 0) root_rows = op.rows_out;
  }
  EXPECT_EQ(root_rows, 3000);
}

TEST(ExecEdge, CompositeJoinKeysMatchOnAllColumns) {
  // Join on two columns; rows matching on only one must not join.
  testing::TestDb db;
  Table* a = db.catalog
                 .CreateTable("a", {{"x", DataType::kInt64},
                                    {"y", DataType::kInt64}})
                 .ValueOrDie();
  Table* b = db.catalog
                 .CreateTable("b", {{"x", DataType::kInt64},
                                    {"y", DataType::kInt64}})
                 .ValueOrDie();
  ASSERT_TRUE(a->AppendRow({Value(int64_t{1}), Value(int64_t{1})}).ok());
  ASSERT_TRUE(a->AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(a->AppendRow({Value(int64_t{2}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(b->AppendRow({Value(int64_t{1}), Value(int64_t{1})}).ok());
  ASSERT_TRUE(b->AppendRow({Value(int64_t{2}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(b->AppendRow({Value(int64_t{2}), Value(int64_t{1})}).ok());

  db.spec.relations = {{"a", "a", nullptr}, {"b", "b", nullptr}};
  db.spec.joins = {{"a", "x", "b", "x"}, {"a", "y", "b", "y"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph.value().num_edges(), 1);  // merged into one 2-col edge
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);
  const QueryMetrics m = ExecutePlan(plan);
  int64_t root_rows = -1;
  for (const auto& op : m.operators) {
    if (op.plan_node_id == 0) root_rows = op.rows_out;
  }
  EXPECT_EQ(root_rows, 2);  // (1,1) and (2,2) only
}

TEST(ExecEdge, GroupByProducesOneRowPerGroup) {
  auto db = MakeStarDb(1, 3000, 10, {-1.0}, 5);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);
  ExecutionOptions options;
  options.agg.kind = AggKind::kCountStar;
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "d0_id"};
  const QueryMetrics m = ExecutePlan(plan, options);
  EXPECT_EQ(m.result_rows, 10);  // one group per dimension key
}

TEST(ExecEdge, SumAggregateMatchesManualSum) {
  auto db = MakeStarDb(1, 1000, 20, {-1.0}, 9);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Table* fact = db->catalog.GetTable("f").value();
  int64_t expected = 0;
  const int mcol = fact->ColumnIndex("measure");
  for (int64_t r = 0; r < fact->num_rows(); ++r) {
    expected += fact->column(mcol).GetInt64(r);
  }
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);
  ExecutionOptions options;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  FilterRuntime runtime;
  auto agg = CompilePlan(plan, options, &runtime);
  agg->Open();
  EXPECT_EQ(agg->TotalValue(), expected);
  agg->Close();
}

TEST(ExecEdge, SingleRelationPlanExecutes) {
  auto db = MakeStarDb(1, 100, 10, {-1.0}, 1);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  // Build a one-leaf "plan" for the dimension only.
  JoinGraph single;
  single.AddRelation("d0", "d0", db->catalog.GetTable("d0").value(),
                     Lt("attr0", 500));
  AttachStatistics(&single);
  Plan plan;
  plan.graph = &single;
  plan.root = MakeLeaf(single, 0);
  plan.Renumber();
  PushDownBitvectors(&plan);
  const QueryMetrics m = ExecutePlan(plan);
  EXPECT_EQ(m.result_rows, 1);
  EXPECT_GT(m.leaf_tuples, 0);
}

// ---- Right-sized scratch: composite filter paths ----

/// a(x, y, z, measure) joins b on the pair (x, y) and c on z. With `a`
/// deepest in the right-deep plan, b's two-key filter on (a.x, a.y) and
/// c's one-key filter on a.z both land on a's scan.
std::unique_ptr<testing::TestDb> MakeCompositeScanDb() {
  auto db = std::make_unique<testing::TestDb>();
  Table* a = AddTable(db.get(), "a", {"x", "y", "z", "measure"});
  for (int64_t i = 0; i < 6000; ++i) {
    AddRow(a, {i % 37, (i * 7) % 23, i % 50, i % 101});
  }
  Table* b = AddTable(db.get(), "b", {"x", "y", "attr0"});
  for (int64_t x = 0; x < 37; ++x) {
    for (int64_t y = 0; y < 23; ++y) {
      if ((x + y) % 3 != 0) AddRow(b, {x, y, (x * y) % 10});
    }
  }
  Table* c = AddTable(db.get(), "c", {"id", "attr0"});
  for (int64_t id = 0; id < 50; ++id) AddRow(c, {id, id % 10});
  db->spec.relations = {{"a", "a", nullptr},
                        {"b", "b", Lt("attr0", 6)},
                        {"c", "c", Lt("attr0", 5)}};
  db->spec.joins = {
      {"a", "x", "b", "x"}, {"a", "y", "b", "y"}, {"a", "z", "c", "id"}};
  return db;
}

/// Figure 1's cycle with data: A joins B, B joins C, and D joins both A
/// and C. In the plan T(A, B, C, D), D's filter is keyed on (A.d_fk1,
/// C.d_fk2), columns split across the join HJ2 = (C, HJ3(B, A)), so it is
/// applied there as a two-key residual — and HJ2 joins on the single key
/// c_fk = c_id, so the residual cannot reuse the probe hash.
std::unique_ptr<testing::TestDb> MakeCompositeResidualDb() {
  auto db = std::make_unique<testing::TestDb>();
  Table* a = AddTable(db.get(), "A", {"b_fk", "d_fk1", "measure"});
  for (int64_t i = 0; i < 5000; ++i) AddRow(a, {i % 40, i % 30, i % 97});
  Table* b = AddTable(db.get(), "B", {"b_id", "c_fk"});
  for (int64_t j = 0; j < 40; ++j) AddRow(b, {j, j % 15});
  Table* c = AddTable(db.get(), "C", {"c_id", "d_fk2"});
  for (int64_t k = 0; k < 15; ++k) AddRow(c, {k, k % 6});
  Table* d = AddTable(db.get(), "D", {"a_ref", "c_ref", "attr0"});
  for (int64_t ar = 0; ar < 30; ++ar) {
    for (int64_t cr = 0; cr < 6; ++cr) {
      if ((ar + cr) % 4 != 0) AddRow(d, {ar, cr, (ar * cr) % 10});
    }
  }
  db->spec.relations = {{"A", "A", nullptr},
                        {"B", "B", nullptr},
                        {"C", "C", nullptr},
                        {"D", "D", Lt("attr0", 7)}};
  db->spec.joins = {{"A", "b_fk", "B", "b_id"},
                    {"B", "c_fk", "C", "c_id"},
                    {"A", "d_fk1", "D", "a_ref"},
                    {"C", "d_fk2", "D", "c_ref"}};
  return db;
}

struct ScratchRun {
  int64_t total = 0;
  uint64_t checksum = 0;
  std::vector<FilterStats> filters;
  std::vector<OperatorStats> joins;  ///< hash joins, depth-first from the root
};

void CollectJoinStats(PhysicalOperator* op, std::vector<OperatorStats>* out) {
  if (op->stats().type == OperatorType::kHashJoin) out->push_back(op->stats());
  for (PhysicalOperator* child : op->children()) CollectJoinStats(child, out);
}

/// Execute `plan` through CompilePlan. With `cache`, hash joins share
/// their build sides through it as served queries do (catalog version 0).
ScratchRun RunScratchPlan(const Plan& plan, int threads, AggKind agg,
                          bool use_bitvectors, BuildCache* cache = nullptr) {
  ExecutionOptions options;
  options.use_bitvectors = use_bitvectors;
  options.exec.threads = threads;
  options.exec.morsel_rows = 512;  // several morsels per scan
  options.agg.kind = agg;
  options.agg.sum_column = BoundColumn{0, "measure"};
  FilterRuntime runtime;
  runtime.build_cache = cache;
  auto root = CompilePlan(plan, options, &runtime);
  root->Open();
  root->Close();
  ScratchRun run{root->TotalValue(), root->ResultChecksum(), runtime.stats,
                 {}};
  CollectJoinStats(root.get(), &run.joins);
  return run;
}

struct ReferenceCheck {
  bool use_bitvectors = true;
  bool expect_empty = false;  ///< the join is empty (else non-degenerate)
};

/// Execute `db`'s right-deep plan in relation order at threads {1, 4}
/// under both tiers: COUNT(*) and SUM(measure), and the root join's
/// rows_out, equal the reference join; the checksum, every FilterStats
/// field and every hash join's row and probe counters equal the threads=1
/// scalar run.
void ExpectMatchesReference(const testing::TestDb& db, const Plan& plan,
                            const ReferenceCheck& check = {}) {
  const testing::ReferenceResult ref = testing::ReferenceJoin(db);
  if (check.expect_empty) {
    ASSERT_EQ(ref.count, 0);
  } else {
    ASSERT_GT(ref.count, 0);  // non-degenerate fixture
  }
  for (AggKind agg : {AggKind::kCountStar, AggKind::kSum}) {
    ScratchRun base;
    {
      ScopedSimdTier scalar(SimdTier::kScalar);
      base = RunScratchPlan(plan, 1, agg, check.use_bitvectors);
    }
    EXPECT_EQ(base.total, agg == AggKind::kSum ? ref.sum : ref.count);
    ASSERT_FALSE(base.joins.empty());
    EXPECT_EQ(base.joins[0].rows_out, ref.count);
    for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
      ScopedSimdTier scoped(tier);
      for (int threads : {1, 4}) {
        const std::string what = std::string(SimdTierName(tier)) +
                                 " threads=" + std::to_string(threads);
        const ScratchRun run =
            RunScratchPlan(plan, threads, agg, check.use_bitvectors);
        EXPECT_EQ(run.total, base.total) << what;
        EXPECT_EQ(run.checksum, base.checksum) << what;
        ASSERT_EQ(run.filters.size(), base.filters.size()) << what;
        for (size_t f = 0; f < run.filters.size(); ++f) {
          EXPECT_EQ(run.filters[f].created, check.use_bitvectors)
              << what << " f" << f;
          EXPECT_EQ(run.filters[f].inserted, base.filters[f].inserted)
              << what << " f" << f;
          EXPECT_EQ(run.filters[f].probed, base.filters[f].probed)
              << what << " f" << f;
          EXPECT_EQ(run.filters[f].passed, base.filters[f].passed)
              << what << " f" << f;
          EXPECT_EQ(run.filters[f].size_bytes, base.filters[f].size_bytes)
              << what << " f" << f;
        }
        ASSERT_EQ(run.joins.size(), base.joins.size()) << what;
        for (size_t j = 0; j < run.joins.size(); ++j) {
          EXPECT_EQ(run.joins[j].rows_out, base.joins[j].rows_out)
              << what << " join " << j;
          EXPECT_EQ(run.joins[j].rows_prefilter, base.joins[j].rows_prefilter)
              << what << " join " << j;
          EXPECT_EQ(run.joins[j].probe_rows_in, base.joins[j].probe_rows_in)
              << what << " join " << j;
          EXPECT_EQ(run.joins[j].probe_rows_matched,
                    base.joins[j].probe_rows_matched)
              << what << " join " << j;
        }
      }
    }
  }
}

TEST(RightSizedScratch, CompositeScanFilterMatchesReference) {
  auto db = MakeCompositeScanDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2});
  PushDownBitvectors(&plan);
  // Both filters land on a's scan, one of them over two keys.
  size_t widest = 0;
  int on_a = 0;
  for (const PlanFilter& f : plan.filters) {
    const PlanNode* site = plan.nodes[static_cast<size_t>(f.applied_at)];
    if (site->IsLeaf() && site->relation == 0) {
      ++on_a;
      widest = std::max(widest, f.probe_col_ids.size());
    }
  }
  ASSERT_EQ(on_a, 2);
  ASSERT_EQ(widest, 2u);
  ExpectMatchesReference(*db, plan);
}

TEST(RightSizedScratch, CompositeResidualFilterMatchesReference) {
  auto db = MakeCompositeResidualDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  // D's filter (created at the root join) stays at a join as a two-key
  // residual; that join's own equi-join key is one column.
  const PlanNode* root = plan.nodes[0];
  ASSERT_GE(root->created_filter, 0);
  const PlanFilter& f_d =
      plan.filters[static_cast<size_t>(root->created_filter)];
  ASSERT_EQ(f_d.probe_col_ids.size(), 2u);
  const PlanNode* site = plan.nodes[static_cast<size_t>(f_d.applied_at)];
  ASSERT_EQ(site->kind, PlanNode::Kind::kJoin);
  ExpectMatchesReference(*db, plan);
}

// ---- Probe path: bucket runs against the reference join ----
//
// Each fixture joins relation 0 (the probe side, with `measure`) to build
// sides shaped to reach one corner of the probe loop: a bucket run longer
// than the candidate stride, distinct keys sharing a bucket, a two-key
// join, residual filters on and off, and an empty build side.

/// The right-deep plan in relation order; it points into `graph`.
Plan RightDeepInRelationOrder(const JoinGraph& graph) {
  std::vector<int> order(static_cast<size_t>(graph.num_relations()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Plan plan = BuildRightDeepPlan(graph, order);
  PushDownBitvectors(&plan);
  return plan;
}

TEST(ProbePath, DuplicateRunLongerThanTheStrideResumes) {
  // Key 7 has 3000 build rows: every probe row of key 7 fills the
  // candidate stride at least twice, so its run is cut and resumed, and
  // runs of other keys follow it within the same output batch.
  testing::TestDb db;
  Table* p = AddTable(&db, "p", {"k", "measure"});
  for (int64_t i = 0; i < 2000; ++i) AddRow(p, {i % 60, i % 13});
  Table* d = AddTable(&db, "d", {"k", "v"});
  for (int64_t i = 0; i < 3000; ++i) AddRow(d, {7, i});
  for (int64_t k = 0; k < 50; ++k) {
    for (int64_t j = 0; j <= k % 5; ++j) AddRow(d, {k, j});
  }
  db.spec.relations = {{"p", "p", nullptr}, {"d", "d", nullptr}};
  db.spec.joins = {{"p", "k", "d", "k"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  ExpectMatchesReference(db, plan);
  ExpectMatchesReference(db, plan, {.use_bitvectors = false});

  // Unfiltered, the join sees every probe row, and a probe row whose run
  // is cut and resumed still counts as one matched row: keys 0-49 match.
  int64_t matching = 0;
  for (int64_t i = 0; i < 2000; ++i) matching += i % 60 < 50 ? 1 : 0;
  for (int threads : {1, 4}) {
    const ScratchRun run =
        RunScratchPlan(plan, threads, AggKind::kCountStar, false);
    ASSERT_EQ(run.joins.size(), 1u);
    EXPECT_EQ(run.joins[0].probe_rows_in, 2000) << threads;
    EXPECT_EQ(run.joins[0].probe_rows_matched, matching) << threads;
  }
}

TEST(ProbePath, DistinctKeysSharingOneBucket) {
  // Ten distinct keys whose single-key hashes agree in the low 16 bits
  // land in one bucket of any table of at most 32768 build rows (its mask
  // is at most 0xFFFF): each probe walks a run of other keys' entries that
  // only the hash comparison rejects. The last four keys have no build
  // row, so their probes walk the shared run and match nothing.
  std::vector<int64_t> colliding;
  const auto low_bits = [](int64_t k) { return HashComposite(&k, 1) & 0xFFFF; };
  const uint64_t target = low_bits(1);
  for (int64_t k = 1; colliding.size() < 10; ++k) {
    if (low_bits(k) == target) colliding.push_back(k);
  }
  testing::TestDb db;
  Table* d = AddTable(&db, "d", {"k", "v"});
  for (size_t c = 0; c < 6; ++c) {
    for (size_t j = 0; j <= c % 3; ++j) {
      AddRow(d, {colliding[c], static_cast<int64_t>(j)});
    }
  }
  for (int64_t k = -200; k < 0; ++k) AddRow(d, {k, 0});  // fillers
  ASSERT_LE(d->num_rows(), 32768);
  Table* p = AddTable(&db, "p", {"k", "measure"});
  for (int64_t i = 0; i < 3000; ++i) {
    AddRow(p, {i % 2 == 0 ? colliding[static_cast<size_t>(i / 2) % 10]
                          : -(i % 250),
               i % 17});
  }
  db.spec.relations = {{"p", "p", nullptr}, {"d", "d", nullptr}};
  db.spec.joins = {{"p", "k", "d", "k"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  ExpectMatchesReference(db, plan);
  ExpectMatchesReference(db, plan, {.use_bitvectors = false});
}

TEST(ProbePath, TwoKeyJoinComparesEveryKey) {
  // Pairs matching on one key only must not join; pair (3, 4) has 1500
  // build rows, so two-key runs are cut by the stride too.
  testing::TestDb db;
  Table* p = AddTable(&db, "p", {"x", "y", "measure"});
  for (int64_t i = 0; i < 3000; ++i) AddRow(p, {i % 23, (i * 7) % 11, i % 31});
  Table* d = AddTable(&db, "d", {"x", "y"});
  for (int64_t x = 0; x < 20; ++x) {
    for (int64_t y = 0; y < 10; ++y) {
      if ((x + y) % 3 == 0) continue;
      for (int64_t j = 0; j <= (x * y) % 4; ++j) AddRow(d, {x, y});
    }
  }
  for (int64_t j = 0; j < 1500; ++j) AddRow(d, {3, 4});
  db.spec.relations = {{"p", "p", nullptr}, {"d", "d", nullptr}};
  db.spec.joins = {{"p", "x", "d", "x"}, {"p", "y", "d", "y"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  ExpectMatchesReference(db, plan);
  ExpectMatchesReference(db, plan, {.use_bitvectors = false});
}

TEST(ProbePath, JoinWithAndWithoutResidualFilter) {
  // With bitvectors on, D's two-key filter is a residual at a join (see
  // MakeCompositeResidualDb): its candidates compact to the survivors
  // before materializing. With them off, the same join has no residual.
  auto db = MakeCompositeResidualDb();
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  ExpectMatchesReference(*db, plan);
  ExpectMatchesReference(*db, plan, {.use_bitvectors = false});
}

TEST(ProbePath, EmptyBuildSide) {
  testing::TestDb db;
  Table* p = AddTable(&db, "p", {"k", "measure"});
  for (int64_t i = 0; i < 2000; ++i) AddRow(p, {i % 40, i % 7});
  Table* d = AddTable(&db, "d", {"k", "attr0"});
  for (int64_t k = 0; k < 40; ++k) AddRow(d, {k, k % 10});
  db.spec.relations = {{"p", "p", nullptr}, {"d", "d", Lt("attr0", -1)}};
  db.spec.joins = {{"p", "k", "d", "k"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  ExpectMatchesReference(db, plan, {.expect_empty = true});
  ExpectMatchesReference(db, plan,
                         {.use_bitvectors = false, .expect_empty = true});
}

// ---- Deferred probe scratch: joins that no probe row reaches ----
//
// A hash join allocates its probe scratch when its first probe row
// arrives, and a Batch its storage at its first write. Each fixture keeps
// rows away from some joins: every probe row eliminated at the scan, rows
// that reach only the deepest join, and a probe table whose first strides
// are all eliminated. Runs at threads {1, 4}, each cold and again on a
// BuildCache hit, must equal testing::ReferenceJoin and the cold
// single-threaded run in checksum, every FilterStats field and every
// join's counters.

/// p(k0, k1, measure) joins d0 on k0 and d1 on k1. The first
/// `unmatched_rows` rows of p have a k0 that no row of d0 holds; the rest
/// match d0 and d1.
std::unique_ptr<testing::TestDb> MakeGappedProbeDb(int64_t unmatched_rows,
                                                   int64_t matched_rows) {
  auto db = std::make_unique<testing::TestDb>();
  Table* p = AddTable(db.get(), "p", {"k0", "k1", "measure"});
  for (int64_t i = 0; i < unmatched_rows; ++i) {
    AddRow(p, {1000 + i % 50, i % 20, i % 11});
  }
  for (int64_t i = 0; i < matched_rows; ++i) {
    AddRow(p, {i % 50, i % 20, i % 13});
  }
  Table* d0 = AddTable(db.get(), "d0", {"id", "attr0"});
  for (int64_t id = 0; id < 50; ++id) AddRow(d0, {id, id % 10});
  Table* d1 = AddTable(db.get(), "d1", {"id", "attr0"});
  for (int64_t id = 0; id < 20; ++id) AddRow(d1, {id, id % 10});
  db->spec.relations = {{"p", "p", nullptr},
                        {"d0", "d0", nullptr},
                        {"d1", "d1", Lt("attr0", 8)}};
  db->spec.joins = {{"p", "k0", "d0", "id"}, {"p", "k1", "d1", "id"}};
  return db;
}

/// The cold threads=1 run of `plan`, after checking it against the
/// reference join; then every (threads, cold/hit) run against it.
ScratchRun ExpectDeferredScratchParity(const testing::TestDb& db,
                                       const Plan& plan, AggKind agg,
                                       bool use_bitvectors) {
  const testing::ReferenceResult ref = testing::ReferenceJoin(db);
  const ScratchRun base = RunScratchPlan(plan, 1, agg, use_bitvectors);
  EXPECT_EQ(base.total, agg == AggKind::kSum ? ref.sum : ref.count);
  EXPECT_FALSE(base.joins.empty());
  if (base.joins.empty()) return base;
  EXPECT_EQ(base.joins[0].rows_out, ref.count);
  for (int threads : {1, 4}) {
    BuildCache cache(BuildCacheOptions{});
    for (const char* pass : {"cold", "hit"}) {
      const std::string what =
          std::string(pass) + " threads=" + std::to_string(threads);
      const ScratchRun run =
          RunScratchPlan(plan, threads, agg, use_bitvectors, &cache);
      EXPECT_EQ(run.total, base.total) << what;
      EXPECT_EQ(run.checksum, base.checksum) << what;
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
        EXPECT_EQ(a.probe_rows_in, b.probe_rows_in) << what << " join " << j;
        EXPECT_EQ(a.probe_rows_matched, b.probe_rows_matched)
            << what << " join " << j;
      }
    }
    // Both build sides are bare dimension scans: the second pass shares
    // each one the first pass built.
    const BuildCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2) << "threads=" << threads;
    EXPECT_EQ(stats.hits, 2) << "threads=" << threads;
  }
  return base;
}

TEST(DeferredProbeScratch, EveryProbeRowEliminated) {
  // d0's filter removes every row of p at the scan: no join sees a probe
  // row, so none allocates probe scratch or writes an output batch.
  auto db = MakeGappedProbeDb(3000, 0);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (AggKind agg : {AggKind::kCountStar, AggKind::kSum}) {
    const ScratchRun base = ExpectDeferredScratchParity(*db, plan, agg, true);
    ASSERT_EQ(base.joins.size(), 2u);
    for (const OperatorStats& join : base.joins) {
      EXPECT_EQ(join.probe_rows_in, 0) << join.label;
      EXPECT_EQ(join.rows_out, 0) << join.label;
    }
  }
}

TEST(DeferredProbeScratch, OnlyTheDeepestJoinSeesRows) {
  // Without filters every row of p reaches the deepest join, which matches
  // none of them, so the join above it never sees a probe row.
  auto db = MakeGappedProbeDb(3000, 0);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (AggKind agg : {AggKind::kCountStar, AggKind::kSum}) {
    const ScratchRun base =
        ExpectDeferredScratchParity(*db, plan, agg, false);
    ASSERT_EQ(base.joins.size(), 2u);
    // Depth-first from the root: joins[1] is the deepest.
    EXPECT_EQ(base.joins[1].probe_rows_in, 3000);
    EXPECT_EQ(base.joins[1].rows_out, 0);
    EXPECT_EQ(base.joins[0].probe_rows_in, 0);
  }
}

TEST(DeferredProbeScratch, FirstProbeRowsFollowEmptyStrides) {
  // The first 5000 rows of p (several strides, and every 512-row morsel of
  // them) are eliminated, so each join's first probe row arrives after
  // strides that produced nothing; the last 1500 rows match.
  auto db = MakeGappedProbeDb(5000, 1500);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  const Plan plan = RightDeepInRelationOrder(graph.value());
  for (bool use_bitvectors : {true, false}) {
    for (AggKind agg : {AggKind::kCountStar, AggKind::kSum}) {
      const ScratchRun base =
          ExpectDeferredScratchParity(*db, plan, agg, use_bitvectors);
      ASSERT_EQ(base.joins.size(), 2u);
      EXPECT_GT(base.joins[0].rows_out, 0);
      // Unfiltered, the deepest join sees every row; filtered, only the
      // 1200 rows that match both dimensions (and any Bloom false
      // positives) reach it.
      if (use_bitvectors) {
        EXPECT_GE(base.joins[1].probe_rows_in, 1200);
        EXPECT_LT(base.joins[1].probe_rows_in, 6500);
      } else {
        EXPECT_EQ(base.joins[1].probe_rows_in, 6500);
      }
    }
  }
}

TEST(DeferredProbeScratch, BatchResetToFewerThenMoreColumns) {
  auto value = [](int round, int c, int r) {
    return int64_t{round} * 1000003 + c * 4099 + r;
  };
  auto write = [&](Batch* b, int round, int rows) {
    for (int c = 0; c < b->num_cols(); ++c) {
      int64_t* dst = b->col(c);
      for (int r = 0; r < rows; ++r) dst[r] = value(round, c, r);
    }
    b->num_rows = rows;
  };
  auto expect_read_back = [&](const Batch& b, int round) {
    for (int c = 0; c < b.num_cols(); ++c) {
      const int64_t* src = b.col(c);
      ASSERT_NE(src, nullptr) << "round " << round << " col " << c;
      for (int r = 0; r < b.num_rows; ++r) {
        ASSERT_EQ(src[r], value(round, c, r))
            << "round " << round << " col " << c << " row " << r;
      }
    }
  };

  Batch batch;
  batch.Reset(3);
  const Batch& unwritten = batch;
  EXPECT_EQ(unwritten.col(0), nullptr);  // Reset allocates nothing
  write(&batch, 0, 100);
  expect_read_back(batch, 0);

  batch.Reset(1);  // fewer columns: the storage is reused
  EXPECT_EQ(batch.num_rows, 0);
  write(&batch, 1, 7);
  expect_read_back(batch, 1);

  batch.Reset(5);  // more columns than any write so far: grows on write
  EXPECT_EQ(unwritten.col(4), nullptr);
  write(&batch, 2, kBatchSize);
  expect_read_back(batch, 2);
  EXPECT_TRUE(batch.Full());
}

// ---- AggFold: the per-batch fold against a naive row loop ----

TEST(AggFold, FoldsBatchesLikeARowLoop) {
  // Columns: 0 = group key, 1 = SUM input. Batch sizes include an empty
  // batch and a full one.
  const OutputSchema schema({ColumnRef{0, 0}, ColumnRef{0, 1}});
  std::vector<Batch> batches;
  std::mt19937_64 rng(0xa66f01d);
  for (int n : {5, 0, kBatchSize, 1, 0, 300}) {
    Batch b;
    b.Reset(2);
    for (int r = 0; r < n; ++r) {
      b.col(0)[r] = static_cast<int64_t>(rng() % 17) - 8;
      b.col(1)[r] = static_cast<int64_t>(rng() % 2001) - 1000;
    }
    b.num_rows = n;
    batches.push_back(std::move(b));
  }

  struct Case {
    const char* name;
    AggKind kind;
    bool grouped;
  };
  for (const Case& c : {Case{"COUNT(*)", AggKind::kCountStar, false},
                        Case{"SUM", AggKind::kSum, false},
                        Case{"grouped COUNT(*)", AggKind::kCountStar, true},
                        Case{"grouped SUM", AggKind::kSum, true}}) {
    AggSpec spec;
    spec.kind = c.kind;
    spec.sum_column = BoundColumn{0, "v", 1};
    spec.has_group_by = c.grouped;
    spec.group_column = BoundColumn{0, "g", 0};
    const AggFold fold = AggFold::Resolve(spec, schema);
    PartialAggState state;
    PartialAggState naive;
    for (const Batch& b : batches) {
      fold.Fold(b, &state);
      for (int r = 0; r < b.num_rows; ++r) {
        const int64_t v = c.kind == AggKind::kSum ? b.col(1)[r] : 1;
        if (c.grouped) naive.groups[b.col(0)[r]] += v;
        naive.total += v;
        ++naive.rows_folded;
      }
    }
    EXPECT_EQ(state.total, naive.total) << c.name;
    EXPECT_EQ(state.rows_folded, naive.rows_folded) << c.name;
    EXPECT_EQ(state.groups, naive.groups) << c.name;
    EXPECT_EQ(state.groups.empty(), !c.grouped) << c.name;
  }
}

TEST(AggFold, WeightedRowsFoldLikeTheirExpandedCopyNearInt64Max) {
  // Values within 2^20 of INT64_MAX and INT64_MIN, so every SUM wraps: a
  // row of multiplicity w must fold exactly as w copies of it, and no add
  // or multiply may be signed overflow (UBSan builds make that fatal).
  const OutputSchema schema({ColumnRef{0, 0}, ColumnRef{0, 1}});
  std::mt19937_64 rng(0x5eed0f01d);
  constexpr int kRows = 700;
  Batch weighted;
  weighted.Reset(2);
  weighted.num_rows = kRows;
  int64_t* mult = weighted.mutable_multiplicity();
  std::vector<Batch> expanded(1);
  expanded.back().Reset(2);
  for (int r = 0; r < kRows; ++r) {
    const int64_t offset = static_cast<int64_t>(rng() % (1 << 20));
    const int64_t g = static_cast<int64_t>(rng() % 5);
    const int64_t v = r % 2 == 0 ? INT64_MAX - offset : INT64_MIN + offset;
    const int64_t w = 1 + static_cast<int64_t>(rng() % 4);
    weighted.col(0)[r] = g;
    weighted.col(1)[r] = v;
    mult[r] = w;
    for (int64_t copy = 0; copy < w; ++copy) {
      if (expanded.back().Full()) {
        expanded.emplace_back();
        expanded.back().Reset(2);
      }
      Batch& b = expanded.back();
      b.col(0)[b.num_rows] = g;
      b.col(1)[b.num_rows] = v;
      ++b.num_rows;
    }
  }
  ASSERT_GT(expanded.size(), 1u);

  for (const bool grouped : {false, true}) {
    for (const AggKind kind : {AggKind::kCountStar, AggKind::kSum}) {
      AggSpec spec;
      spec.kind = kind;
      spec.sum_column = BoundColumn{0, "v", 1};
      spec.has_group_by = grouped;
      spec.group_column = BoundColumn{0, "g", 0};
      const AggFold fold = AggFold::Resolve(spec, schema);
      PartialAggState once;
      fold.Fold(weighted, &once);
      PartialAggState copies;
      for (const Batch& b : expanded) fold.Fold(b, &copies);
      const std::string what = std::string(grouped ? "grouped " : "") +
                               (kind == AggKind::kSum ? "SUM" : "COUNT(*)");
      EXPECT_EQ(once.total, copies.total) << what;
      EXPECT_EQ(once.groups, copies.groups) << what;
      EXPECT_EQ(once.rows_folded, copies.rows_folded) << what;
      EXPECT_GT(once.rows_folded, kRows) << what;
    }
  }
}

}  // namespace
}  // namespace bqo
