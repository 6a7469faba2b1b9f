// Workload generators: structural checks (every query binds, connects, and
// respects engine limits) plus end-to-end runner smoke tests verifying that
// baseline and BQO plans compute identical results on real workload queries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "src/workload/runner.h"

namespace bqo {
namespace {

constexpr double kTestScale = 0.04;

class WorkloadTest : public ::testing::TestWithParam<int> {
 protected:
  static Workload Make(int which, double scale) {
    switch (which) {
      case 0:
        return MakeTpcdsLite(scale);
      case 1:
        return MakeJobLite(scale);
      default:
        return MakeCustomerLite(scale);
    }
  }
};

TEST_P(WorkloadTest, StructureMatchesTable3Shape) {
  const Workload w = Make(GetParam(), kTestScale);
  switch (GetParam()) {
    case 0:
      EXPECT_EQ(w.name, "TPC-DS");
      EXPECT_EQ(w.queries.size(), 99u);
      EXPECT_EQ(w.catalog->num_tables(), 14);  // 11 dims + 3 facts
      EXPECT_GT(w.AvgJoins(), 4.0);
      EXPECT_LT(w.AvgJoins(), 11.0);
      break;
    case 1:
      EXPECT_EQ(w.name, "JOB");
      EXPECT_EQ(w.queries.size(), 113u);
      EXPECT_EQ(w.catalog->num_tables(), 12);  // 8 dims + 4 facts
      EXPECT_GT(w.AvgJoins(), 3.0);
      EXPECT_LT(w.AvgJoins(), 10.0);
      break;
    default:
      EXPECT_EQ(w.name, "CUSTOMER");
      EXPECT_EQ(w.queries.size(), 100u);
      EXPECT_GT(w.catalog->num_tables(), 90);
      EXPECT_GT(w.AvgJoins(), 15.0);  // the paper's high-join workload
      EXPECT_GT(w.MaxJoins(), 20);
      break;
  }
  EXPECT_GT(w.DatabaseBytes(), 0);
}

TEST_P(WorkloadTest, EveryQueryBindsAndConnects) {
  const Workload w = Make(GetParam(), kTestScale);
  for (const QuerySpec& q : w.queries) {
    auto graph = BuildJoinGraph(*w.catalog, q);
    ASSERT_TRUE(graph.ok()) << q.name << ": " << graph.status().ToString();
    const JoinGraph& g = graph.value();
    EXPECT_LE(g.num_relations(), 64) << q.name;
    EXPECT_GE(g.num_relations(), 2) << q.name;
    EXPECT_TRUE(g.IsConnected(g.AllRels())) << q.name;
    // Every relation has exact filtered cardinalities attached.
    for (int r = 0; r < g.num_relations(); ++r) {
      EXPECT_GE(g.relation(r).base_rows, g.relation(r).filtered_rows);
    }
  }
}

TEST_P(WorkloadTest, GenerationIsDeterministic) {
  const Workload a = Make(GetParam(), kTestScale);
  const Workload b = Make(GetParam(), kTestScale);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  EXPECT_EQ(a.DatabaseBytes(), b.DatabaseBytes());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].name, b.queries[i].name);
    EXPECT_EQ(a.queries[i].joins.size(), b.queries[i].joins.size());
  }
}

TEST_P(WorkloadTest, BaselineAndBqoAgreeOnResults) {
  const Workload w = Make(GetParam(), kTestScale);
  RunOptions options;
  options.repeats = 1;
  options.limit = 6;
  const auto baseline =
      RunWorkload(w, OptimizerMode::kBaselinePostProcess, options);
  const auto bqo = RunWorkload(w, OptimizerMode::kBqoShallow, options);
  ASSERT_EQ(baseline.size(), bqo.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].metrics.result_checksum,
              bqo[i].metrics.result_checksum)
        << baseline[i].query_name;
  }
}

std::string WorkloadCaseName(const ::testing::TestParamInfo<int>& info) {
  if (info.param == 0) return "TpcdsLite";
  if (info.param == 1) return "JobLite";
  return "CustomerLite";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values(0, 1, 2), WorkloadCaseName);

TEST(Runner, GroupsSplitIntoTerciles) {
  std::vector<QueryRun> runs(9);
  for (int i = 0; i < 9; ++i) {
    runs[static_cast<size_t>(i)].metrics.total_ns = (i + 1) * 100;
  }
  const auto groups = GroupBySelectivity(runs);
  int counts[3] = {0, 0, 0};
  for (QueryGroup g : groups) ++counts[static_cast<int>(g)];
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 3);
  EXPECT_EQ(groups[0], QueryGroup::kS);
  EXPECT_EQ(groups[8], QueryGroup::kL);
}

TEST(Runner, BitvectorUsageIsNearUniversal) {
  // Table 4: 97-100% of queries use bitvector filters in their plans.
  const Workload w = MakeTpcdsLite(kTestScale);
  RunOptions options;
  options.repeats = 1;
  options.limit = 20;
  const auto runs =
      RunWorkload(w, OptimizerMode::kBaselinePostProcess, options);
  int with_filters = 0;
  for (const QueryRun& r : runs) {
    if (r.used_bitvectors) ++with_filters;
  }
  EXPECT_GE(with_filters, static_cast<int>(runs.size()) - 2);
}

/// BQO_SCALE multiplies every generated row count: a value that is not
/// one whole finite positive number keeps scale 1.
TEST(Workloads, ScaleFromEnvKeepsTheDefaultOnABadValue) {
  const char* old = std::getenv("BQO_SCALE");
  const std::optional<std::string> saved =
      old != nullptr ? std::optional<std::string>(old) : std::nullopt;
  ::setenv("BQO_SCALE", "0.25", 1);
  EXPECT_EQ(ScaleFromEnv(), 0.25);
  for (const char* bad : {"0.1x", "inf", "1e999", "nan", "0", "-1", ""}) {
    ::setenv("BQO_SCALE", bad, 1);
    EXPECT_EQ(ScaleFromEnv(), 1.0) << "'" << bad << "'";
  }
  if (saved) {
    ::setenv("BQO_SCALE", saved->c_str(), 1);
  } else {
    ::unsetenv("BQO_SCALE");
  }
}

}  // namespace
}  // namespace bqo
