#include "src/optimizer/parameterized.h"

#include <chrono>
#include <utility>

namespace bqo {

namespace {

void AppendTree(const PlanNode& node, std::string* key) {
  if (node.kind == PlanNode::Kind::kLeaf) {
    *key += std::to_string(node.relation);
    return;
  }
  *key += '(';
  AppendTree(*node.build, key);
  *key += ' ';
  AppendTree(*node.probe, key);
  *key += ')';
}

}  // namespace

std::string PlanChoiceKey(const Plan& plan) {
  std::string key;
  AppendTree(*plan.root, &key);
  for (const PlanFilter& f : plan.filters) {
    if (f.pruned) continue;
    key += ';';
    key += std::to_string(f.source_join);
    key += '@';
    key += std::to_string(f.applied_at);
  }
  return key;
}

ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto ns_since_start = [&start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // OptimizeQuery's steps, spelled out so the annotation below costs with
  // the same model.
  EstimatedCoutModel model(stats, options.filter_fp_rate);
  Plan plan = OrderJoins(graph, options, &model);
  const int pruned = PruneFilters(&plan, options, &model);
  ParameterizedPlan out;
  out.optimized = FinishOptimization(std::move(plan), pruned, &model);
  out.optimized.optimize_ns = ns_since_start();
  // Estimated lambda per filter from the bitvector-aware model, not from
  // PlanFilter::estimated_lambda — the latter is only filled when pruning
  // runs, and the drift reference must exist either way.
  out.estimated_lambda = model.Compute(out.optimized.plan).filter_lambda;
  out.constants = graph.ConstantTable();
  out.optimize_ns = ns_since_start();
  return out;
}

}  // namespace bqo
