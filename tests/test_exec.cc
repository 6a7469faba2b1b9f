// Execution engine correctness: results must match a brute-force reference
// join, and must be invariant to join order, filter kind, and whether
// bitvector filters are enabled at all (filters are pure performance).
#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeChainDb;
using ::bqo::testing::MakeStarDb;

/// Brute-force reference for a star query: count fact rows whose every FK
/// hits a dimension row passing that dimension's predicate. (Dimension PKs
/// are 0..rows-1 = row index, a datagen invariant.)
int64_t ReferenceStarCount(const testing::TestDb& db) {
  const Table* fact = db.catalog.GetTable("f").value();
  int64_t count = 0;
  std::vector<std::vector<uint8_t>> dim_pass;
  std::vector<int> fk_cols;
  for (size_t i = 1; i < db.spec.relations.size(); ++i) {
    const auto& rel = db.spec.relations[i];
    const Table* dim = db.catalog.GetTable(rel.table).value();
    dim_pass.push_back(EvaluateBitmap(*dim, rel.predicate));
    fk_cols.push_back(fact->ColumnIndex(rel.table + "_fk"));
  }
  for (int64_t row = 0; row < fact->num_rows(); ++row) {
    bool ok = true;
    for (size_t d = 0; d < dim_pass.size(); ++d) {
      const int64_t fk = fact->column(fk_cols[d]).GetInt64(row);
      if (fk < 0 || static_cast<size_t>(fk) >= dim_pass[d].size() ||
          !dim_pass[d][static_cast<size_t>(fk)]) {
        ok = false;
        break;
      }
    }
    if (ok) ++count;
  }
  return count;
}

class ExecStarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeStarDb(3, 4000, 100, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
    auto graph = db_->Graph();
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<JoinGraph>(std::move(graph.value()));
    expected_ = ReferenceStarCount(*db_);
    ASSERT_GT(expected_, 0);  // non-degenerate fixture
  }

  std::unique_ptr<testing::TestDb> db_;
  std::unique_ptr<JoinGraph> graph_;
  int64_t expected_ = 0;
};

TEST_F(ExecStarTest, CountMatchesReferenceWithoutFilters) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  ClearBitvectors(&plan);
  ExecutionOptions options;
  options.use_bitvectors = false;
  const QueryMetrics m = ExecutePlan(plan, options);
  EXPECT_EQ(m.result_rows, 1);
  // COUNT(*) is the aggregate total; fetch via join tuple count at root.
  // The root join's rows_out equals the join cardinality.
  int64_t root_rows = -1;
  for (const auto& op : m.operators) {
    if (op.plan_node_id == 0) root_rows = op.rows_out;
  }
  EXPECT_EQ(root_rows, expected_);
}

TEST_F(ExecStarTest, FiltersDoNotChangeResults) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  for (FilterKind kind :
       {FilterKind::kExact, FilterKind::kBloom, FilterKind::kBlockedBloom}) {
    ExecutionOptions options;
    options.filter_config.kind = kind;
    const QueryMetrics m = ExecutePlan(plan, options);
    int64_t root_rows = -1;
    for (const auto& op : m.operators) {
      if (op.plan_node_id == 0) root_rows = op.rows_out;
    }
    EXPECT_EQ(root_rows, expected_) << FilterKindName(kind);
  }
}

TEST_F(ExecStarTest, ChecksumInvariantAcrossJoinOrders) {
  ExecutionOptions options;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "attr1"};

  std::vector<std::vector<int>> orders = {
      {0, 1, 2, 3}, {0, 3, 1, 2}, {2, 0, 1, 3}, {1, 0, 3, 2}};
  uint64_t checksum = 0;
  int64_t groups = -1;
  for (size_t i = 0; i < orders.size(); ++i) {
    Plan plan = BuildRightDeepPlan(*graph_, orders[i]);
    PushDownBitvectors(&plan);
    const QueryMetrics m = ExecutePlan(plan, options);
    if (i == 0) {
      checksum = m.result_checksum;
      groups = m.result_rows;
    } else {
      EXPECT_EQ(m.result_checksum, checksum) << "order " << i;
      EXPECT_EQ(m.result_rows, groups) << "order " << i;
    }
  }
  EXPECT_GT(groups, 0);
}

TEST_F(ExecStarTest, ExactFiltersFullyReduceFactScan) {
  // With exact filters and fact right-most, the fact scan's output equals
  // the final join cardinality (the absorption rule, Lemma 3).
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  ExecutionOptions options;
  options.filter_config.kind = FilterKind::kExact;
  const QueryMetrics m = ExecutePlan(plan, options);
  for (const auto& op : m.operators) {
    if (op.type == OperatorType::kScan && op.label == "scan f") {
      EXPECT_EQ(op.rows_out, expected_);
    }
    if (op.type == OperatorType::kHashJoin) {
      EXPECT_EQ(op.rows_out, expected_);  // PKFK joins preserve cardinality
    }
  }
}

TEST_F(ExecStarTest, BloomFilterLeaksOnlyFalsePositives) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  ExecutionOptions exact_opts, bloom_opts;
  exact_opts.filter_config.kind = FilterKind::kExact;
  bloom_opts.filter_config.kind = FilterKind::kBloom;
  bloom_opts.filter_config.bloom_bits_per_key = 4.0;  // deliberately leaky
  const QueryMetrics exact = ExecutePlan(plan, exact_opts);
  const QueryMetrics bloom = ExecutePlan(plan, bloom_opts);
  auto scan_out = [](const QueryMetrics& m) {
    for (const auto& op : m.operators) {
      if (op.label == "scan f") return op.rows_out;
    }
    return int64_t{-1};
  };
  // Bloom may pass extra (false-positive) fact rows but never fewer.
  EXPECT_GE(scan_out(bloom), scan_out(exact));
  // Final result is identical (join verifies keys exactly).
  int64_t exact_root = -1, bloom_root = -1;
  for (const auto& op : exact.operators) {
    if (op.plan_node_id == 0) exact_root = op.rows_out;
  }
  for (const auto& op : bloom.operators) {
    if (op.plan_node_id == 0) bloom_root = op.rows_out;
  }
  EXPECT_EQ(exact_root, bloom_root);
}

TEST_F(ExecStarTest, MetricsAreInternallyConsistent) {
  Plan plan = BuildRightDeepPlan(*graph_, {0, 1, 2, 3});
  PushDownBitvectors(&plan);
  const QueryMetrics m = ExecutePlan(plan);
  int64_t scans = 0, joins = 0;
  for (const auto& op : m.operators) {
    if (op.type != OperatorType::kAggregate) {
      EXPECT_GE(op.rows_prefilter, op.rows_out);
    }
    EXPECT_GE(op.ns_inclusive, op.ns_self);
    if (op.type == OperatorType::kScan) scans += op.rows_out;
    if (op.type == OperatorType::kHashJoin) joins += op.rows_out;
  }
  EXPECT_EQ(scans, m.leaf_tuples);
  EXPECT_EQ(joins, m.join_tuples);
  for (const auto& fs : m.filters) {
    EXPECT_GE(fs.probed, fs.passed);
    EXPECT_TRUE(fs.created);
  }
}

TEST(ExecManyToMany, DuplicateKeysProduceAllPairs) {
  // Two fact-like tables joined on a skewed, non-unique column.
  testing::TestDb db;
  Rng rng(5);
  TableGenSpec dim;
  dim.name = "d";
  dim.rows = 50;
  dim.with_label = false;
  GenerateTable(&db.catalog, dim, &rng);
  for (const char* name : {"f1", "f2"}) {
    TableGenSpec f;
    f.name = name;
    f.rows = 800;
    f.with_pk = false;
    f.with_label = false;
    f.fks.push_back(FkSpec{"d_fk", "d", "d_id", 0.9, 0.0});
    GenerateTable(&db.catalog, f, &rng);
  }
  db.spec.relations = {{"f1", "f1", nullptr}, {"f2", "f2", nullptr}};
  db.spec.joins = {{"f1", "d_fk", "f2", "d_fk"}};
  auto graph = db.Graph();
  ASSERT_TRUE(graph.ok());

  // Reference: histogram dot-product.
  const Table* f1 = db.catalog.GetTable("f1").value();
  const Table* f2 = db.catalog.GetTable("f2").value();
  std::map<int64_t, int64_t> h1, h2;
  for (int64_t r = 0; r < f1->num_rows(); ++r) {
    ++h1[f1->column(f1->ColumnIndex("d_fk")).GetInt64(r)];
  }
  for (int64_t r = 0; r < f2->num_rows(); ++r) {
    ++h2[f2->column(f2->ColumnIndex("d_fk")).GetInt64(r)];
  }
  int64_t expected = 0;
  for (const auto& [k, c] : h1) {
    auto it = h2.find(k);
    if (it != h2.end()) expected += c * it->second;
  }

  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);
  const QueryMetrics m = ExecutePlan(plan);
  int64_t root_rows = -1;
  for (const auto& op : m.operators) {
    if (op.plan_node_id == 0) root_rows = op.rows_out;
  }
  EXPECT_EQ(root_rows, expected);
  EXPECT_GT(expected, 800);  // skew should force real duplication
}

TEST(ExecChain, DeepChainAllOrdersAgree) {
  auto db = MakeChainDb(5, 3000, 0.4, {-1, -1, -1, -1, 0.2}, 123);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  JoinGraph& graph = graph_result.value();

  // Execute every valid right-deep order (2^(n-1) = 16) and compare counts.
  int64_t expected = -1;
  int executed = 0;
  std::vector<int> perm(5);
  for (int mask = 0; mask < 32; ++mask) {
    // Build interval-extension orders: start somewhere, extend left/right.
    // Easiest: enumerate all permutations and filter valid ones.
    std::vector<int> ids = {0, 1, 2, 3, 4};
    std::sort(ids.begin(), ids.end());
    do {
      if (!IsValidRightDeepOrder(graph, ids)) continue;
      Plan plan = BuildRightDeepPlan(graph, ids);
      PushDownBitvectors(&plan);
      const QueryMetrics m = ExecutePlan(plan);
      int64_t root_rows = -1;
      for (const auto& op : m.operators) {
        if (op.plan_node_id == 0) root_rows = op.rows_out;
      }
      if (expected < 0) {
        expected = root_rows;
      } else {
        ASSERT_EQ(root_rows, expected);
      }
      ++executed;
    } while (std::next_permutation(ids.begin(), ids.end()));
    break;  // one pass over permutations suffices
  }
  EXPECT_EQ(executed, 16);
}

}  // namespace
}  // namespace bqo
