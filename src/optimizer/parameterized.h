// Parameterized plans: optimization output annotated for shape-cache reuse.
//
// A serving workload sends the same query *template* with varying literals.
// Re-running the optimizer per instance wastes the paper's Section 6.5
// overhead; blindly reusing the first instance's plan risks serving a join
// order chosen for very different selectivities. The paper's robustness
// observation — the bitvector-aware plan stays (near-)optimal while the
// estimated filter lambdas stay near their optimize-time values — gives
// the reuse rule implemented here:
//
//  * OptimizeParameterized records, next to the optimized plan, the
//    constant slot table it was bound under, each relation's optimize-time
//    selectivity, and every filter's estimated lambda.
//  * For each relation whose predicate has constant slots it derives a
//    **validity band**: the selectivity range within which re-running the
//    optimizer still picks the same join order and the same unpruned
//    filter menu. The band is found by probe re-optimizations at geometric
//    steps of OptimizerOptions::reopt_sel_band (scaling that relation's
//    filtered_rows and re-optimizing); the edge is the last stable step.
//
// The serving layer (src/server/plan_cache.h) then re-binds new constants
// into the cached shape, re-estimates only the moved relations, and serves
// the cached join order iff every moved selectivity lands inside its band
// — escalating to full re-optimization otherwise.
#pragma once

#include <vector>

#include "src/optimizer/optimizer.h"

namespace bqo {

/// \brief Selectivity range [lo, hi] (filtered_rows / base_rows) within
/// which a cached plan's join order and filter menu remain the optimizer's
/// choice for one relation. Slotless relations get the degenerate full
/// band [0, 1] — their selectivity cannot move without a shape change.
struct SelectivityBand {
  double lo = 0.0;
  double hi = 1.0;

  bool Contains(double sel) const { return sel >= lo && sel <= hi; }
};

/// \brief An optimized plan plus the slot/selectivity annotations the
/// plan-shape cache needs to re-bind and validity-check it. All vectors
/// indexed by relation, except estimated_lambda (by filter id).
struct ParameterizedPlan {
  OptimizedQuery optimized;
  /// Wall time of the whole OptimizeParameterized call: the base
  /// OptimizeQuery (optimized.optimize_ns) plus every band probe — what a
  /// plan-cache miss costs and a hit saves.
  int64_t optimize_ns = 0;
  /// Constant slot table the plan was optimized under (one vector per
  /// relation — which selectivity estimate depends on which slots).
  std::vector<std::vector<Value>> constants;
  /// Optimize-time selectivity per relation (filtered_rows / base_rows).
  std::vector<double> optimize_sel;
  /// Validity band per relation (see module comment).
  std::vector<SelectivityBand> bands;
  /// Estimated elimination fraction per filter id at optimize time — the
  /// reference the feedback EWMA drifts against (pruned filters: 0).
  std::vector<double> estimated_lambda;
};

/// \brief Optimize `graph` (which must have statistics attached) and
/// derive the reuse annotations. Costs the base OptimizeQuery plus up to
/// `band_probe_steps`+1 probe re-optimizations per direction per
/// predicated relation — paid on cache misses only.
ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options);

}  // namespace bqo
