// Execution engine correctness: results must match a brute-force reference
// join, and must be invariant to join order, filter kind, and whether
// bitvector filters are enabled at all (filters are pure performance).
//
// ReferenceJoinTest pins the hash join to testing::ReferenceJoin
// (test_util.h), an evaluator that shares no operator, filter, optimizer or
// SIMD code with the engine, on star, chain, snowflake, skewed
// many-to-many and empty-input data.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "src/exec/executor.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeChainDb;
using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;

class ExecStarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeStarDb(3, 4000, 100, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
    auto graph = db_->Graph();
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<JoinGraph>(std::move(graph.value()));
    expected_ = testing::ReferenceJoin(*db_).count;
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
  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
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
  bloom_opts.filter_config.kind = FilterKind::kBlockedBloom;
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

/// Two fact-like tables `l` and `r` of `rows` rows each, joined on their
/// non-unique `d_fk` column (Zipf-skewed references into a `d` table of
/// `dim_rows` rows): a many-to-many join with long duplicate chains.
std::unique_ptr<testing::TestDb> MakeManyToManyDb(int64_t dim_rows,
                                                  int64_t rows, double zipf,
                                                  uint64_t seed) {
  auto db = std::make_unique<testing::TestDb>();
  Rng rng(seed);
  TableGenSpec dim;
  dim.name = "d";
  dim.rows = dim_rows;
  dim.with_label = false;
  GenerateTable(&db->catalog, dim, &rng);
  for (const char* name : {"l", "r"}) {
    TableGenSpec f;
    f.name = name;
    f.rows = rows;
    f.with_pk = false;
    f.with_label = false;
    f.fks.push_back(FkSpec{"d_fk", "d", "d_id", zipf, 0.0});
    GenerateTable(&db->catalog, f, &rng);
  }
  db->spec.name = "many-to-many";
  db->spec.relations = {{"l", "l", nullptr}, {"r", "r", nullptr}};
  db->spec.joins = {{"l", "d_fk", "r", "d_fk"}};
  return db;
}

TEST(ExecManyToMany, DuplicateKeysProduceAllPairs) {
  auto db = MakeManyToManyDb(50, 800, 0.9, 5);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());

  // Reference: histogram dot-product.
  const Table* f1 = db->catalog.GetTable("l").value();
  const Table* f2 = db->catalog.GetTable("r").value();
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

// ---- Hash join vs. the engine-independent reference join ----

enum class RefShape { kStar, kChain, kSnowflake, kManyToMany, kEmptyInput };

struct ReferenceCase {
  const char* name;
  RefShape shape;
  uint64_t seed;
};

void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<testing::TestDb> MakeReferenceDb(const ReferenceCase& c) {
  switch (c.shape) {
    case RefShape::kStar:
      return MakeStarDb(3, 3000, 90, {0.25, 0.6, -1.0}, c.seed, 0.5);
    case RefShape::kChain:
      return MakeChainDb(4, 2500, 0.4, {-1, -1, -1, 0.2}, c.seed);
    case RefShape::kSnowflake:
      return MakeSnowflakeDb({2, 1}, 2500, 70, 0.5, {0.2, 0.5}, c.seed);
    case RefShape::kManyToMany:
      return MakeManyToManyDb(20, 500, 1.1, c.seed);
    case RefShape::kEmptyInput: {
      auto db = MakeStarDb(1, 200, 20, {0.5}, c.seed);
      db->spec.relations[1].predicate = Lt("attr0", -1);
      return db;
    }
  }
  return nullptr;
}

/// Filters off, or one filter kind at a Bloom budget. `blockedSaturated`
/// runs the Bloom filter at its minimum budget (1 bit/key), so most
/// non-matching probe rows pass it and the joins above must drop them.
struct FilterSetting {
  const char* name;
  bool on;
  FilterKind kind;
  double bits_per_key;
};

void PrintTo(const FilterSetting& f, std::ostream* os) { *os << f.name; }

class ReferenceJoinTest
    : public ::testing::TestWithParam<std::tuple<ReferenceCase, FilterSetting>> {
};

/// The right-deep hash-join plan in relation order must total exactly what
/// the reference join counts and sums — for each fixture and each filter
/// setting (off, or one filter kind), single-threaded and pipeline-parallel.
TEST_P(ReferenceJoinTest, HashJoinTotalsMatchReference) {
  const ReferenceCase& c = std::get<0>(GetParam());
  const FilterSetting& f = std::get<1>(GetParam());
  auto db = MakeReferenceDb(c);
  const testing::ReferenceResult ref = testing::ReferenceJoin(*db);
  switch (c.shape) {
    case RefShape::kEmptyInput:
      ASSERT_EQ(ref.count, 0);
      break;
    case RefShape::kManyToMany:
      ASSERT_GT(ref.count, 500);  // real duplication on both sides
      break;
    default:
      ASSERT_GT(ref.count, 0);  // non-degenerate fixture
  }

  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  std::vector<int> order(static_cast<size_t>(graph.value().num_relations()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Plan plan = BuildRightDeepPlan(graph.value(), order);
  PushDownBitvectors(&plan);

  for (int threads : {1, 4}) {
    for (AggKind agg : {AggKind::kCountStar, AggKind::kSum}) {
      ExecutionOptions options;
      options.use_bitvectors = f.on;
      options.filter_config.kind = f.kind;
      options.filter_config.bloom_bits_per_key = f.bits_per_key;
      options.exec.threads = threads;
      options.exec.morsel_rows = 512;  // several morsels per scan
      options.agg.kind = agg;
      options.agg.sum_column = BoundColumn{0, "measure"};
      FilterRuntime runtime;
      auto root = CompilePlan(plan, options, &runtime);
      root->Open();
      root->Close();
      EXPECT_EQ(root->TotalValue(), agg == AggKind::kSum ? ref.sum : ref.count)
          << c.name << " filters=" << f.name << " threads=" << threads
          << (agg == AggKind::kSum ? " SUM" : " COUNT");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, ReferenceJoinTest,
    ::testing::Combine(
        ::testing::Values(ReferenceCase{"star1", RefShape::kStar, 1},
                          ReferenceCase{"star2", RefShape::kStar, 2},
                          ReferenceCase{"chain3", RefShape::kChain, 3},
                          ReferenceCase{"chain4", RefShape::kChain, 4},
                          ReferenceCase{"snowflake5", RefShape::kSnowflake, 5},
                          ReferenceCase{"snowflake6", RefShape::kSnowflake, 6},
                          ReferenceCase{"manyToMany", RefShape::kManyToMany, 5},
                          ReferenceCase{"emptyInput", RefShape::kEmptyInput,
                                        7}),
        ::testing::Values(
            FilterSetting{"off", false, FilterKind::kExact, 10.0},
            FilterSetting{"exact", true, FilterKind::kExact, 10.0},
            FilterSetting{"blocked", true, FilterKind::kBlockedBloom, 10.0},
            FilterSetting{"blockedSaturated", true, FilterKind::kBlockedBloom,
                          1.0})),
    [](const ::testing::TestParamInfo<ReferenceJoinTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace bqo
