// Tests for the optimizer stack: DP baseline, snowflake extraction,
// Algorithms 2 & 3 (BQO), cost-based filter pruning, integration modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/exact_cost.h"
#include "src/exec/executor.h"
#include "src/optimizer/bqo.h"
#include "src/optimizer/cost_model.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/enumerate.h"
#include "src/plan/pushdown.h"
#include "src/stats/estimated_cost.h"
#include "src/workload/workload.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;

// ---------- DP baseline ----------

TEST(DpBaseline, MatchesExhaustiveBlindMinimum) {
  auto db = MakeStarDb(4, 2000, 80, {0.3, 0.1, 0.8, 0.5}, 7);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  EstimatedCoutModel model(&stats);

  Plan dp_plan = OptimizeDpBaseline(graph, &model);
  ASSERT_TRUE(dp_plan.Validate());
  ClearBitvectors(&dp_plan);
  const double dp_cost = model.Cout(dp_plan);

  // Exhaustive filter-blind minimum over right deep trees.
  double best = -1;
  for (const auto& order : EnumerateRightDeepOrders(graph)) {
    Plan plan = BuildRightDeepPlan(graph, order);
    ClearBitvectors(&plan);
    const double c = model.Cout(plan);
    if (best < 0 || c < best) best = c;
  }
  EXPECT_NEAR(dp_cost, best, best * 0.01);
}

TEST(DpBaseline, GreedyHandlesWideQueries) {
  auto db = MakeStarDb(18, 3000, 30, {0.5, 0.5, 0.5}, 3);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  EstimatedCoutModel model(&stats);
  Plan plan = OptimizeGreedy(graph, &model);
  EXPECT_TRUE(plan.Validate());
  EXPECT_TRUE(plan.IsRightDeep());
  EXPECT_EQ(RelSetCount(plan.root->rel_set), 19);
}

// Two optimizers plan the baseline on one freshly generated workload, so
// both compute the columns' distinct counts cold, concurrently; TSan
// builds check the memo is race-free. Each must match a sequential run.
TEST(DpBaseline, ConcurrentColdCatalogIsRaceFree) {
  const Workload w = MakeTpcdsLite(0.02);
  StatsCatalog stats(w.catalog.get());
  OptimizerOptions options;
  options.mode = OptimizerMode::kBaselinePostProcess;
  auto plan_all = [&] {
    std::vector<std::string> plans;
    for (const QuerySpec& spec : w.queries) {
      auto graph = BuildJoinGraph(*w.catalog, spec);
      BQO_CHECK(graph.ok());
      const OptimizedQuery q = OptimizeQuery(graph.value(), &stats, options);
      plans.push_back(q.plan.Signature() +
                      StringFormat(" %a", q.estimated_cost));
    }
    return plans;
  };
  std::vector<std::string> first, second;
  std::thread t1([&] { first = plan_all(); });
  std::thread t2([&] { second = plan_all(); });
  t1.join();
  t2.join();
  const std::vector<std::string> sequential = plan_all();
  EXPECT_EQ(first, sequential);
  EXPECT_EQ(second, sequential);
}

// ---------- Snowflake detection ----------

TEST(Snowflake, FactDetectionOnStar) {
  auto db = MakeStarDb(3, 1000, 50, {0.5}, 5);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  auto units = MakeLeafUnits(graph);
  std::vector<int> active = {0, 1, 2, 3};
  const auto facts = FindFactUnits(graph, units, active);
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0], 0);  // relation 0 is the fact
  const auto members = ExpandSnowflake(graph, units, active, 0);
  EXPECT_EQ(members.size(), 4u);
}

TEST(Snowflake, TwoFactsDetected) {
  // Galaxy: two facts sharing one dimension.
  testing::TestDb db;
  Rng rng(9);
  TableGenSpec dim;
  dim.name = "d";
  dim.rows = 100;
  dim.with_label = false;
  GenerateTable(&db.catalog, dim, &rng);
  for (const char* name : {"f1", "f2"}) {
    TableGenSpec f;
    f.name = name;
    f.rows = 2000;
    f.with_pk = false;
    f.with_label = false;
    f.fks.push_back(FkSpec{"d_fk", "d", "d_id", 0.0, 0.0});
    GenerateTable(&db.catalog, f, &rng);
  }
  db.spec.relations = {
      {"f1", "f1", nullptr}, {"f2", "f2", nullptr}, {"d", "d", nullptr}};
  db.spec.joins = {{"f1", "d_fk", "d", "d_id"}, {"f2", "d_fk", "d", "d_id"}};
  auto graph_result = db.Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  auto units = MakeLeafUnits(graph);
  const auto facts = FindFactUnits(graph, units, {0, 1, 2});
  EXPECT_EQ(facts.size(), 2u);  // f1 and f2; d is referenced -> dimension
}

TEST(Snowflake, GroupBranchesMergesConnectedBranches) {
  // Star with 3 dims where d0 and d1 also join each other.
  auto db = MakeStarDb(3, 1000, 50, {}, 5);
  db->spec.joins.push_back({"d0", "attr1", "d1", "attr1"});
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  auto units = MakeLeafUnits(graph);
  const auto groups = GroupBranches(graph, units, {0, 1, 2, 3}, 0);
  ASSERT_EQ(groups.size(), 2u);
  // One group of {d0, d1} (connected), one of {d2}.
  const auto& big = groups[0].size() == 2 ? groups[0] : groups[1];
  const auto& small = groups[0].size() == 2 ? groups[1] : groups[0];
  EXPECT_EQ(big, (std::vector<int>{1, 2}));
  EXPECT_EQ(small, (std::vector<int>{3}));
}

// ---------- Algorithm 2 / Algorithm 3 ----------

class BqoVsBaselineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BqoVsBaselineTest, BqoNeverWorseThanBaselineOnSnowflakes) {
  const uint64_t seed = GetParam();
  auto db = MakeSnowflakeDb({2, 1, 2}, 4000, 80, 0.5,
                            {0.1, 0.5, 0.25}, seed, 0.4);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);

  OptimizerOptions base_opts, bqo_opts;
  base_opts.mode = OptimizerMode::kBaselinePostProcess;
  base_opts.lambda_thresh = -1;  // isolate join-order effects
  bqo_opts.mode = OptimizerMode::kBqoShallow;
  bqo_opts.lambda_thresh = -1;

  OptimizedQuery baseline = OptimizeQuery(graph, &stats, base_opts);
  OptimizedQuery bqo = OptimizeQuery(graph, &stats, bqo_opts);
  ASSERT_TRUE(baseline.plan.Validate());
  ASSERT_TRUE(bqo.plan.Validate());

  // Judge by TRUE cost (exact model), not the estimates they planned with.
  ExactCoutModel exact;
  const double baseline_cost = exact.Cout(baseline.plan);
  const double bqo_cost = exact.Cout(bqo.plan);
  EXPECT_LE(bqo_cost, baseline_cost * 1.05) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BqoVsBaselineTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Bqo, StarPlanDrawnFromTheoremCandidates) {
  auto db = MakeStarDb(4, 3000, 100, {0.15, 0.6, 0.35, 0.8}, 23);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  EstimatedCoutModel model(&stats);
  Plan plan = OptimizeBqo(graph, &model);
  ASSERT_TRUE(plan.Validate());
  ASSERT_TRUE(plan.IsRightDeep());
  const std::vector<int> order = plan.RightDeepOrder();
  // Theorem 4.1 candidates: fact first, or a dimension then the fact.
  if (order[0] == 0) {
    SUCCEED();
  } else {
    EXPECT_EQ(order[1], 0);
  }
}

TEST(Bqo, MultiFactQueryCoversAllRelations) {
  // Two facts sharing a dimension plus private dimensions.
  testing::TestDb db;
  Rng rng(31);
  for (const char* dname : {"shared", "pd1", "pd2"}) {
    TableGenSpec d;
    d.name = dname;
    d.rows = 150;
    d.with_label = false;
    GenerateTable(&db.catalog, d, &rng);
  }
  {
    TableGenSpec f;
    f.name = "f1";
    f.rows = 5000;
    f.with_pk = false;
    f.with_label = false;
    f.fks.push_back(FkSpec{"shared_fk", "shared", "shared_id", 0.0, 0.0});
    f.fks.push_back(FkSpec{"pd1_fk", "pd1", "pd1_id", 0.0, 0.0});
    GenerateTable(&db.catalog, f, &rng);
  }
  {
    TableGenSpec f;
    f.name = "f2";
    f.rows = 4000;
    f.with_pk = false;
    f.with_label = false;
    f.fks.push_back(FkSpec{"shared_fk", "shared", "shared_id", 0.0, 0.0});
    f.fks.push_back(FkSpec{"pd2_fk", "pd2", "pd2_id", 0.0, 0.0});
    GenerateTable(&db.catalog, f, &rng);
  }
  db.spec.relations = {{"f1", "f1", nullptr},
                       {"f2", "f2", nullptr},
                       {"shared", "shared", testing::SelPredicate(0.2)},
                       {"pd1", "pd1", testing::SelPredicate(0.5)},
                       {"pd2", "pd2", nullptr}};
  db.spec.joins = {{"f1", "shared_fk", "shared", "shared_id"},
                   {"f2", "shared_fk", "shared", "shared_id"},
                   {"f1", "pd1_fk", "pd1", "pd1_id"},
                   {"f2", "pd2_fk", "pd2", "pd2_id"}};
  auto graph_result = db.Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db.catalog);
  EstimatedCoutModel model(&stats);
  Plan plan = OptimizeBqo(graph, &model);
  ASSERT_TRUE(plan.Validate());
  EXPECT_EQ(plan.root->rel_set, graph.AllRels());

  // Executing the optimized plan must agree with the baseline plan.
  PushDownBitvectors(&plan);
  Plan baseline = OptimizeDpBaseline(graph, &model);
  PushDownBitvectors(&baseline);
  const QueryMetrics m1 = ExecutePlan(plan);
  const QueryMetrics m2 = ExecutePlan(baseline);
  EXPECT_EQ(m1.result_checksum, m2.result_checksum);
}

// ---------- Algorithm 2 lends fragments and gets them back ----------

std::string FragmentSignature(const JoinGraph& graph, const PlanNode& node) {
  Plan plan;
  plan.graph = &graph;
  plan.root = ClonePlanNode(node);
  plan.Renumber();
  return plan.Signature();
}

/// Costs with a real model and checks what each candidate is built from:
/// every member unit has lent its fragment (the unit holds none while the
/// candidate is costed) and the candidate covers exactly the members.
class LendCheckingModel : public CoutModel {
 public:
  LendCheckingModel(StatsCatalog* stats, const std::vector<PlanUnit>* units,
                    std::vector<int> members, RelSet member_rels)
      : model_(stats), units_(units), members_(std::move(members)),
        member_rels_(member_rels) {}

  CoutBreakdown Compute(const Plan& plan) override {
    for (int m : members_) {
      EXPECT_EQ((*units_)[static_cast<size_t>(m)].fragment, nullptr)
          << "unit " << m << " kept its fragment while it was costed";
    }
    EXPECT_TRUE(plan.Validate());
    EXPECT_EQ(plan.root->rel_set, member_rels_);
    signatures.push_back(plan.Signature());
    root_build_rels.push_back(plan.root->build->rel_set);
    return model_.Compute(plan);
  }

  std::vector<std::string> signatures;
  std::vector<RelSet> root_build_rels;

 private:
  EstimatedCoutModel model_;
  const std::vector<PlanUnit>* units_;
  std::vector<int> members_;
  RelSet member_rels_;
};

TEST(SnowflakeLend, FragmentsComeBackAndRepeatCallsAgree) {
  // Fact f with branches b0 (b0_1 - b0_2), b1 (b1_1) and b2 (b2_1 - b2_2).
  // b2's two relations are one composite unit, as an earlier Algorithm 3
  // round leaves them; the fact's estimate is cut below every dimension's,
  // so each dimension joined above the fact flips to the probe side (P3).
  auto db = MakeSnowflakeDb({2, 1, 2}, 3000, 90, 0.8, {0.5, -1.0, 0.4}, 61);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  const int f = graph.FindRelation("f");
  const int b2_1 = graph.FindRelation("b2_1");
  const int b2_2 = graph.FindRelation("b2_2");
  ASSERT_GE(f, 0);
  ASSERT_GE(b2_1, 0);
  ASSERT_GE(b2_2, 0);

  std::vector<PlanUnit> units = MakeLeafUnits(graph);
  units[static_cast<size_t>(f)].est_card = 5;
  {
    Plan branch;
    branch.graph = &graph;
    branch.root = MakeJoin(graph, MakeLeaf(graph, b2_2), MakeLeaf(graph, b2_1));
    ASSERT_NE(branch.root, nullptr);
    PushDownBitvectors(&branch);  // a composite carries old annotations
    PlanUnit composite;
    composite.rels = branch.root->rel_set;
    composite.optimized = true;
    composite.est_card = 30;
    composite.fragment = std::move(branch.root);
    units.push_back(std::move(composite));
  }
  std::vector<int> members;
  for (int u = 0; u < static_cast<int>(units.size()); ++u) {
    if (u != b2_1 && u != b2_2) members.push_back(u);
  }

  std::vector<std::string> before;
  std::vector<RelSet> rels_before;
  for (const PlanUnit& unit : units) {
    before.push_back(FragmentSignature(graph, *unit.fragment));
    rels_before.push_back(unit.fragment->rel_set);
  }
  auto expect_units_intact = [&](const std::string& when) {
    for (size_t u = 0; u < units.size(); ++u) {
      ASSERT_NE(units[u].fragment, nullptr) << when << ": unit " << u;
      EXPECT_EQ(FragmentSignature(graph, *units[u].fragment), before[u])
          << when << ": unit " << u;
      EXPECT_EQ(units[u].fragment->rel_set, rels_before[u])
          << when << ": unit " << u;
    }
  };

  StatsCatalog stats(&db->catalog);
  LendCheckingModel model(&stats, &units, members, graph.AllRels());
  const SnowflakeChoice first =
      OptimizeSnowflakeUnits(graph, &units, members, f, &model);
  expect_units_intact("after the first call");
  // Candidate 0 is fact-right-most; its topmost dimension flipped, so the
  // chain (and the fact in it) is the root's build side.
  ASSERT_GT(model.signatures.size(), 3u);
  EXPECT_TRUE(RelSetContains(model.root_build_rels[0], f))
      << model.signatures[0];

  const std::vector<std::string> first_candidates = model.signatures;
  model.signatures.clear();
  const SnowflakeChoice second =
      OptimizeSnowflakeUnits(graph, &units, members, f, &model);
  expect_units_intact("after the second call");
  EXPECT_EQ(model.signatures, first_candidates);

  ASSERT_NE(first.fragment, nullptr);
  ASSERT_NE(second.fragment, nullptr);
  EXPECT_EQ(FragmentSignature(graph, *first.fragment),
            FragmentSignature(graph, *second.fragment));
  EXPECT_EQ(first.fragment->rel_set, graph.AllRels());
  EXPECT_EQ(std::bit_cast<uint64_t>(first.root_card),
            std::bit_cast<uint64_t>(second.root_card));
  // The winner is one of the candidates, returned without annotations.
  EXPECT_NE(std::find(first_candidates.begin(), first_candidates.end(),
                      FragmentSignature(graph, *first.fragment)),
            first_candidates.end());
  Plan winner;
  winner.graph = &graph;
  winner.root = ClonePlanNode(*first.fragment);
  winner.Renumber();
  for (const PlanNode* n : winner.nodes) {
    EXPECT_TRUE(n->applied_filters.empty());
    EXPECT_EQ(n->created_filter, -1);
  }
}

// ---------- Cost-based filter pruning (Section 6.3) ----------

TEST(CostBasedFilters, UnselectiveFiltersArePruned) {
  // d1 keeps everything (no predicate) -> its filter eliminates ~0% and
  // must be pruned; d0 at 10% must survive.
  auto db = MakeStarDb(2, 3000, 100, {0.1, -1.0}, 13);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  EstimatedCoutModel model(&stats);
  Plan plan = BuildRightDeepPlan(graph, {0, 1, 2});
  PushDownBitvectors(&plan);
  const int pruned = PruneIneffectiveFilters(&plan, &model, 0.05);
  EXPECT_EQ(pruned, 1);
  int kept = 0;
  for (const PlanFilter& f : plan.filters) {
    if (!f.pruned) {
      ++kept;
      EXPECT_GT(f.estimated_lambda, 0.5);
    }
  }
  EXPECT_EQ(kept, 1);
}

TEST(CostBasedFilters, ExecutorHonorsPruning) {
  auto db = MakeStarDb(2, 3000, 100, {0.1, -1.0}, 13);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  EstimatedCoutModel model(&stats);
  Plan plan = BuildRightDeepPlan(graph, {0, 1, 2});
  PushDownBitvectors(&plan);
  PruneIneffectiveFilters(&plan, &model, 0.05);
  const QueryMetrics m = ExecutePlan(plan);
  int created = 0;
  for (const auto& fs : m.filters) {
    if (fs.created) ++created;
  }
  EXPECT_EQ(created, 1);
}

TEST(CostBasedFilters, ThresholdFormula) {
  EXPECT_DOUBLE_EQ(LambdaThreshold(1.0, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(LambdaThreshold(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(LambdaThreshold(20.0, 10.0), 0.0);  // clamped
}

// ---------- Integration modes (Section 6.4) ----------

TEST(IntegrationModes, AlternativePlanTakesTheCheaper) {
  auto db = MakeSnowflakeDb({2, 2}, 3000, 80, 0.5, {0.1, 0.4}, 41);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  OptimizerOptions options;
  options.lambda_thresh = -1;
  double costs[3];
  const OptimizerMode modes[3] = {OptimizerMode::kBaselinePostProcess,
                                  OptimizerMode::kBqoShallow,
                                  OptimizerMode::kAlternativePlan};
  for (int i = 0; i < 3; ++i) {
    options.mode = modes[i];
    costs[i] = OptimizeQuery(graph, &stats, options).estimated_cost;
  }
  EXPECT_LE(costs[2], costs[0] * 1.0001);
  EXPECT_LE(costs[2], costs[1] * 1.0001);
}

TEST(IntegrationModes, ExhaustiveAtMostBqoCost) {
  auto db = MakeStarDb(4, 2500, 60, {0.2, 0.7, 0.4, 0.9}, 53);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  OptimizerOptions options;
  options.lambda_thresh = -1;
  options.mode = OptimizerMode::kExhaustive;
  const double exhaustive = OptimizeQuery(graph, &stats, options).estimated_cost;
  options.mode = OptimizerMode::kBqoShallow;
  const double bqo = OptimizeQuery(graph, &stats, options).estimated_cost;
  EXPECT_LE(exhaustive, bqo * 1.0001);
}

TEST(IntegrationModes, NoBitvectorModeStripsFilters) {
  auto db = MakeStarDb(3, 1000, 50, {0.5}, 5);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  StatsCatalog stats(&db->catalog);
  OptimizerOptions options;
  options.mode = OptimizerMode::kNoBitvectors;
  OptimizedQuery q = OptimizeQuery(graph_result.value(), &stats, options);
  EXPECT_TRUE(q.plan.filters.empty());
}

TEST(IntegrationModes, OptimizedPlansAllComputeTheSameResult) {
  auto db = MakeSnowflakeDb({2, 1}, 2500, 70, 0.5, {0.2, 0.6}, 61, 0.5);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  StatsCatalog stats(&db->catalog);
  OptimizerOptions options;
  uint64_t checksum = 0;
  bool first = true;
  for (OptimizerMode mode :
       {OptimizerMode::kBaselinePostProcess, OptimizerMode::kNoBitvectors,
        OptimizerMode::kBqoShallow, OptimizerMode::kAlternativePlan,
        OptimizerMode::kExhaustive}) {
    options.mode = mode;
    OptimizedQuery q = OptimizeQuery(graph, &stats, options);
    ExecutionOptions exec;
    exec.use_bitvectors = mode != OptimizerMode::kNoBitvectors;
    const QueryMetrics m = ExecutePlan(q.plan, exec);
    if (first) {
      checksum = m.result_checksum;
      first = false;
    } else {
      EXPECT_EQ(m.result_checksum, checksum) << OptimizerModeName(mode);
    }
  }
}

}  // namespace
}  // namespace bqo
