// Parameterized plans: optimization output annotated for shape-cache reuse.
//
// A serving workload sends the same query *template* with varying literals.
// Re-running the optimizer per instance wastes the paper's Section 6.5
// overhead; blindly reusing the first instance's plan risks serving a join
// order chosen for very different selectivities. The reuse rule here is
// verification on demand:
//
//  * OptimizeParameterized is OptimizeQuery plus the constant slot table
//    the plan was bound under. Nothing is probed up front, so a plan that
//    is never reused costs exactly one optimization.
//  * The plan cache checks every rebind whose constants moved: one
//    OrderJoins + PruneFilters on the rebound graph, compared with the
//    cached plan by PlanChoiceKey. A refused check re-runs
//    OptimizeParameterized on the query's graph.
//  * No verified region is remembered. The choice is not convex in
//    selectivity — along one relation the shipped optimizer can pick plan
//    X, then Y, then X again as the selectivity grows (JOB-lite q014) — so
//    only exact points could be reused, and a repeated point saves one
//    verification (~30 us on TPC-DS-lite) of a multi-millisecond request.
#pragma once

#include <string>
#include <vector>

#include "src/optimizer/optimizer.h"

namespace bqo {

/// \brief An optimized plan plus the constant slot table the plan-shape
/// cache needs to re-bind it. `optimized.optimize_ns` is what a
/// plan-cache miss costs and a hit saves.
struct ParameterizedPlan {
  OptimizedQuery optimized;
  /// Constant slot table the plan was optimized under (one vector per
  /// relation — which selectivity estimate depends on which slots).
  std::vector<std::vector<Value>> constants;
};

/// \brief Structural identity of an optimization outcome: the join tree
/// over relation indices (aliases excluded) plus the unpruned filter menu
/// (source join and application site). Two runs over graphs of one shape
/// with equal keys made the same choice.
std::string PlanChoiceKey(const Plan& plan);

/// \brief OptimizeQuery on `graph` (which must have statistics attached)
/// plus its constant slot table.
ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options);

}  // namespace bqo
