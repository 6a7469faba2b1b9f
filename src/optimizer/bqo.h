// Bitvector-aware query optimization (Section 6).
//
// OptimizeSnowflakeUnits is Algorithm 2: given a snowflake-ish subgraph
// (a fact unit plus branch groups), it builds the linear candidate set the
// analysis of Sections 4-5 justifies — the fact-right-most plan plus, for
// every branch and every within-branch start position, the plan that joins
// that branch first — and returns the candidate with minimal bitvector-aware
// estimated Cout. Branch groups are prioritized per the paper's P0-P3 rules.
//
// OptimizeBqo is Algorithm 3: repeatedly extract the snowflake around the
// smallest unoptimized fact table, optimize it with Algorithm 2, collapse it
// into a composite unit, and continue until one unit remains.
#pragma once

#include <memory>
#include <vector>

#include "src/optimizer/snowflake.h"
#include "src/plan/cout.h"

namespace bqo {

/// \brief Algorithm 2's winner for one snowflake.
struct SnowflakeChoice {
  std::unique_ptr<PlanNode> fragment;  ///< the winner's tree
  double root_card = 0;  ///< its estimated output cardinality
};

/// \brief Algorithm 2. `members` indexes `units` (fact included). The
/// returned fragment covers exactly the member units' relations and has no
/// filter annotations. `model` must be bitvector-aware (candidates are
/// costed after Algorithm 1 push-down).
///
/// Candidates are costed on the units' own fragments, lent to one reused
/// plan and given back after each candidate, so `units` is mutable: when
/// the call returns, every fragment is back in its unit with the same
/// structure (Signature, rel_set); only its node ids and filter
/// annotations were rewritten. Only the winner is copied, once.
SnowflakeChoice OptimizeSnowflakeUnits(const JoinGraph& graph,
                                       std::vector<PlanUnit>* units,
                                       const std::vector<int>& members,
                                       int fact, CoutModel* model);

/// \brief Algorithm 3: full bitvector-aware join ordering for an arbitrary
/// join graph (single or multiple fact tables, non-PKFK edges allowed).
/// The returned plan has no filter annotations yet; callers run
/// PushDownBitvectors + PruneIneffectiveFilters (the facade does).
Plan OptimizeBqo(const JoinGraph& graph, CoutModel* model);

}  // namespace bqo
