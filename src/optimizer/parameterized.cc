#include "src/optimizer/parameterized.h"

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
  ParameterizedPlan out;
  out.optimized = OptimizeQuery(graph, stats, options);
  out.constants = graph.ConstantTable();
  return out;
}

}  // namespace bqo
