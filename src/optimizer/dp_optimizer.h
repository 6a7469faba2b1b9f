// The Original's join orderer: the paper's "original Microsoft SQL Server"
// baseline, blind to bitvector filters, which are added to the winning
// plan only as a post-processing step (Algorithm 1).
//
// Queries of at most kMaxDpRelations relations are ordered by exhaustive
// right-deep dynamic programming; wider ones fall back to a greedy
// min-expansion heuristic, mirroring how industrial optimizers cap
// exhaustive search. Both cost a relation set with an order-independent
// cardinality (the product of filtered cardinalities times one containment
// factor per edge), reading each edge side's distinct count from the same
// EstimatedCoutModel BQO costs with, so the Original and BQO share one
// estimator and differ only in bitvector awareness. (The exhaustive
// bitvector-aware search is ExhaustiveBitvectorAware in optimizer.cc.)
#pragma once

#include "src/plan/cout.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

/// Widest query the DP orders; wider ones are ordered greedily.
constexpr int kMaxDpRelations = 14;

/// \brief Return the estimated-minimum filter-blind Cout join order over
/// right-deep trees (greedy past kMaxDpRelations). The returned plan
/// carries no filter annotation; callers post-process with
/// PushDownBitvectors.
Plan OptimizeDpBaseline(const JoinGraph& graph, EstimatedCoutModel* model);

/// \brief Greedy right-deep order: start at the smallest filtered relation,
/// repeatedly append the neighbor minimizing the estimated next
/// intermediate size.
Plan OptimizeGreedy(const JoinGraph& graph, EstimatedCoutModel* model);

}  // namespace bqo
