// Randomized end-to-end cross-validation ("fuzz" suite): generate random
// schemas/queries spanning star, snowflake, chain and galaxy topologies,
// then check the invariants that must hold regardless of topology:
//
//  1. every optimizer mode produces a valid plan covering all relations,
//  2. all modes compute exactly the same query result (checksums agree),
//  3. bitvector filters never change results across filter implementations,
//  4. the executed plan's intermediate sizes match ExactCoutModel's claim
//     (costing and execution cannot diverge — they share the plan).
#include <gtest/gtest.h>

#include "src/exec/exact_cost.h"
#include "src/exec/executor.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

struct FuzzCase {
  uint64_t seed;
};

/// Builds a random galaxy: 1-2 facts, shared + private dims, some chains,
/// occasionally a non-PKFK attr join.
std::unique_ptr<testing::TestDb> MakeRandomDb(uint64_t seed) {
  auto db = std::make_unique<testing::TestDb>();
  Rng rng(seed * 7919 + 13);

  const int num_dims = 2 + static_cast<int>(rng.Uniform(4));
  std::vector<std::string> dims;
  for (int d = 0; d < num_dims; ++d) {
    TableGenSpec spec;
    spec.name = StringFormat("dim%d", d);
    spec.rows = 30 + static_cast<int64_t>(rng.Uniform(400));
    GenerateTable(&db->catalog, spec, &rng);
    dims.push_back(spec.name);
  }
  // Half of the dims may grow a child (snowflake level 2).
  std::vector<std::string> subs(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    if (!rng.Bernoulli(0.4)) continue;
    TableGenSpec spec;
    spec.name = dims[d] + "_sub";
    spec.rows = 20 + static_cast<int64_t>(rng.Uniform(100));
    GenerateTable(&db->catalog, spec, &rng);
    // Parent references child (parent -> child is the PKFK direction).
    // Regenerate parent with an FK is awkward; instead declare the child
    // as referenced via a fresh FK column added at generation time is not
    // supported, so we model the chain by joining on the child's key from
    // the parent's attr0 domain — instead, keep it simple: child joins
    // parent on parent's pk (parent referenced by child: child -> parent).
    subs[d] = spec.name;
  }
  const int num_facts = 1 + static_cast<int>(rng.Uniform(2));
  for (int f = 0; f < num_facts; ++f) {
    TableGenSpec spec;
    spec.name = StringFormat("fact%d", f);
    spec.rows = 2000 + static_cast<int64_t>(rng.Uniform(6000));
    spec.with_pk = false;
    for (size_t d = 0; d < dims.size(); ++d) {
      spec.fks.push_back(FkSpec{dims[d] + "_fk", dims[d], dims[d] + "_id",
                                0.8 * rng.NextDouble(),
                                rng.Bernoulli(0.2) ? 0.1 : 0.0});
    }
    GenerateTable(&db->catalog, spec, &rng);
  }

  // Query: one or both facts, a random subset of dims each, predicates.
  QuerySpec& spec = db->spec;
  spec.name = StringFormat("fuzz_%llu", static_cast<unsigned long long>(seed));
  for (int f = 0; f < num_facts; ++f) {
    spec.relations.push_back(
        {StringFormat("fact%d", f), StringFormat("fact%d", f), nullptr});
  }
  int dims_used = 0;
  for (size_t d = 0; d < dims.size(); ++d) {
    if (!rng.Bernoulli(0.8)) continue;
    ++dims_used;
    ExprPtr pred;
    if (rng.Bernoulli(0.7)) {
      const int64_t bound = 5 + static_cast<int64_t>(rng.Uniform(800));
      pred = Lt("attr0", bound);
    }
    spec.relations.push_back({dims[d], dims[d], pred});
    for (int f = 0; f < num_facts; ++f) {
      if (f > 0 && !rng.Bernoulli(0.6)) continue;
      spec.joins.push_back({StringFormat("fact%d", f), dims[d] + "_fk",
                            dims[d], dims[d] + "_id"});
    }
    if (!subs[d].empty() && rng.Bernoulli(0.6)) {
      // Chain below the dimension: sub references dim (sub -> dim), so the
      // edge's unique side is the dimension.
      spec.relations.push_back({subs[d], subs[d], nullptr});
      spec.joins.push_back({subs[d], "attr0", dims[d], "attr1"});
    }
  }
  if (dims_used == 0) {
    spec.relations.push_back({dims[0], dims[0], nullptr});
    spec.joins.push_back(
        {"fact0", dims[0] + "_fk", dims[0], dims[0] + "_id"});
    dims_used = 1;
  }
  // Guarantee connectivity: every fact joins at least one used dimension.
  for (int f = 0; f < num_facts; ++f) {
    const std::string fname = StringFormat("fact%d", f);
    bool joined = false;
    for (const auto& j : spec.joins) {
      if (j.left_alias == fname || j.right_alias == fname) joined = true;
    }
    if (!joined) {
      for (const auto& r : spec.relations) {
        if (r.alias.rfind("dim", 0) == 0 &&
            r.alias.find("_sub") == std::string::npos) {
          spec.joins.push_back(
              {fname, r.alias + "_fk", r.alias, r.alias + "_id"});
          break;
        }
      }
    }
  }
  return db;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, AllModesAgreeAndCostingMatchesExecution) {
  auto db = MakeRandomDb(GetParam());
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok()) << graph_result.status().ToString();
  const JoinGraph& graph = graph_result.value();
  if (!graph.IsConnected(graph.AllRels())) {
    GTEST_SKIP() << "generated a disconnected query";
  }
  StatsCatalog stats(&db->catalog);

  uint64_t checksum = 0;
  bool first = true;
  for (OptimizerMode mode :
       {OptimizerMode::kBaselinePostProcess, OptimizerMode::kBqoShallow,
        OptimizerMode::kAlternativePlan}) {
    OptimizerOptions options;
    options.mode = mode;
    OptimizedQuery q = OptimizeQuery(graph, &stats, options);
    ASSERT_TRUE(q.plan.Validate()) << OptimizerModeName(mode);
    ASSERT_EQ(q.plan.root->rel_set, graph.AllRels());

    const QueryMetrics m = ExecutePlan(q.plan);
    if (first) {
      checksum = m.result_checksum;
      first = false;
    } else {
      ASSERT_EQ(m.result_checksum, checksum) << OptimizerModeName(mode);
    }
  }

  // Costing vs execution consistency, including with pruned filters.
  OptimizerOptions options;
  options.mode = OptimizerMode::kBqoShallow;
  OptimizedQuery q = OptimizeQuery(graph, &stats, options);
  ExactCoutModel exact;
  const CoutBreakdown claimed = exact.Compute(q.plan);
  ExecutionOptions exec;
  exec.filter_config.kind = FilterKind::kExact;
  const QueryMetrics m = ExecutePlan(q.plan, exec);
  double executed_total = 0;
  for (const auto& op : m.operators) {
    if (op.type != OperatorType::kAggregate) {
      executed_total += static_cast<double>(op.rows_out);
    }
  }
  EXPECT_DOUBLE_EQ(executed_total, claimed.total);
}

TEST_P(FuzzTest, FilterImplementationsNeverChangeResults) {
  auto db = MakeRandomDb(GetParam() + 1000);
  auto graph_result = db->Graph();
  ASSERT_TRUE(graph_result.ok());
  const JoinGraph& graph = graph_result.value();
  if (!graph.IsConnected(graph.AllRels())) {
    GTEST_SKIP() << "generated a disconnected query";
  }
  StatsCatalog stats(&db->catalog);
  OptimizerOptions options;
  OptimizedQuery q = OptimizeQuery(graph, &stats, options);

  uint64_t checksum = 0;
  bool first = true;
  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    ExecutionOptions exec;
    exec.filter_config.kind = kind;
    exec.filter_config.bloom_bits_per_key = 6.0;  // deliberately leaky
    const QueryMetrics m = ExecutePlan(q.plan, exec);
    if (first) {
      checksum = m.result_checksum;
      first = false;
    } else {
      ASSERT_EQ(m.result_checksum, checksum) << FilterKindName(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace bqo
