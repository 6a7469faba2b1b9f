// Snowflake detection and extraction (Section 6.2, Algorithm 3 helpers).
//
// Optimization operates over "plan units": initially one unit per relation;
// each round of Algorithm 3 collapses an optimized snowflake into a single
// composite unit whose fragment is the subplan produced by Algorithm 2.
//
// Fact-table test (paper): a relation is a fact candidate iff no join edge
// references it through a unique key of its own columns — i.e. nothing
// treats it as a dimension. Composite units are never fact candidates and
// never unique-side endpoints (a dimension key stops being unique once its
// table is joined into a composite).
#pragma once

#include <memory>
#include <vector>

#include "src/plan/plan.h"

namespace bqo {

struct PlanUnit {
  RelSet rels = 0;
  std::unique_ptr<PlanNode> fragment;
  double est_card = 0;   ///< estimated output cardinality (local filters only)
  bool optimized = false;  ///< composite produced by a previous round

  bool IsSingleRelation() const { return RelSetCount(rels) == 1; }
  int SingleRelation() const { return __builtin_ctzll(rels); }
};

/// \brief One unit per relation of the graph.
std::vector<PlanUnit> MakeLeafUnits(const JoinGraph& graph);

/// \brief True if, on edge `eid`, the side belonging to `unit` is a unique
/// key (single-relation units only; composites are never unique).
bool UnitSideUnique(const JoinGraph& graph, const PlanUnit& unit, int eid);

/// \brief Indices (into `units`) of active fact candidates: unoptimized
/// units never referenced via a unique key on their own side.
/// `active` restricts the check to a subset; pass all indices normally.
std::vector<int> FindFactUnits(const JoinGraph& graph,
                               const std::vector<PlanUnit>& units,
                               const std::vector<int>& active);

/// \brief Algorithm 3's ExpandSnowflake: the fact unit plus every unit
/// reachable from it through edges whose far side is unique (its dimension
/// closure). Returns indices into `units`, fact first.
std::vector<int> ExpandSnowflake(const JoinGraph& graph,
                                 const std::vector<PlanUnit>& units,
                                 const std::vector<int>& active, int fact);

/// \brief Partition `members` minus the fact into connected groups
/// (connectivity ignoring the fact). A group of several fact-adjacent
/// branches is the paper's "set of connected branches" (priority group P2).
std::vector<std::vector<int>> GroupBranches(const JoinGraph& graph,
                                            const std::vector<PlanUnit>& units,
                                            const std::vector<int>& members,
                                            int fact);

}  // namespace bqo
