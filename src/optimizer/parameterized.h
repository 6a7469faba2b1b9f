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
// One call is one **probe session** (OptimizerSession, optimizer.h): the
// base run and every probe share one aware and one blind cost model (the
// raw-distinct memo is filled once), one copy of the graph (each probe sets
// one relation's filtered_rows and restores it), and Algorithm 2's
// candidate memo (bqo.h). A probe derives each candidate's structural key
// from integers, re-costs a remembered plan on a hit, and builds and pushes
// down only unseen candidates. The memo has two generations: the base
// run's candidates live for the whole call, and each probe's replace the
// probe before's, so it holds about twice the base run's candidate count.
// A probe also computes only what its verdict reads: it compares the join
// order before pruning and prunes only on a match, skips the filter menu
// and the final cost, and repeats the previous probe's verdict when the
// clamped cardinality did not move. Every cost comes from the same Compute
// on a structurally identical plan, so bands, plans, lambdas and costs are
// bit-identical to re-optimizing each probe from scratch
// (tests/test_plan_shape_cache.cc, ProbeSessionParity).
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
  /// Band probes re-optimized (verdicts repeated for an unmoved clamped
  /// cardinality are not counted).
  int64_t probes = 0;
  /// Algorithm 2 candidates the session re-costed from its memo / built,
  /// base run and probes together. Deterministic for a given graph.
  int64_t reused_candidates = 0;
  int64_t built_candidates = 0;
};

/// \brief Optimize `graph` (which must have statistics attached) and
/// derive the reuse annotations. Costs the base OptimizeQuery plus up to
/// `band_probe_steps`+1 probe re-optimizations per direction per
/// predicated relation, all in one probe session — paid on cache misses
/// only.
ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options);

}  // namespace bqo
