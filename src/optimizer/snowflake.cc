#include "src/optimizer/snowflake.h"

#include <algorithm>

namespace bqo {

std::vector<PlanUnit> MakeLeafUnits(const JoinGraph& graph) {
  std::vector<PlanUnit> units;
  units.reserve(static_cast<size_t>(graph.num_relations()));
  for (int r = 0; r < graph.num_relations(); ++r) {
    PlanUnit unit;
    unit.rels = RelBit(r);
    unit.fragment = MakeLeaf(graph, r);
    unit.est_card = std::max(graph.relation(r).filtered_rows, 1.0);
    units.push_back(std::move(unit));
  }
  return units;
}

bool UnitSideUnique(const JoinGraph& graph, const PlanUnit& unit, int eid) {
  if (!unit.IsSingleRelation()) return false;
  const JoinEdge& e = graph.edge(eid);
  const int rel = unit.SingleRelation();
  if (e.left == rel) return e.left_unique;
  if (e.right == rel) return e.right_unique;
  return false;
}

std::vector<int> FindFactUnits(const JoinGraph& graph,
                               const std::vector<PlanUnit>& units,
                               const std::vector<int>& active) {
  std::vector<int> facts;
  std::vector<int> edges;
  for (int u : active) {
    const PlanUnit& unit = units[static_cast<size_t>(u)];
    if (unit.optimized) continue;
    bool referenced = false;
    for (int v : active) {
      const RelSet other = units[static_cast<size_t>(v)].rels;
      if (v == u || !graph.Adjacent(unit.rels, other)) continue;
      graph.EdgesBetweenSets(unit.rels, other, &edges);
      for (int eid : edges) {
        if (UnitSideUnique(graph, unit, eid)) {
          referenced = true;
          break;
        }
      }
      if (referenced) break;
    }
    if (!referenced) facts.push_back(u);
  }
  return facts;
}

std::vector<int> ExpandSnowflake(const JoinGraph& graph,
                                 const std::vector<PlanUnit>& units,
                                 const std::vector<int>& active, int fact) {
  std::vector<int> members = {fact};
  std::vector<bool> in_set(units.size(), false);
  in_set[static_cast<size_t>(fact)] = true;
  std::vector<int> edges;
  bool grew = true;
  while (grew) {
    grew = false;
    for (int v : active) {
      if (in_set[static_cast<size_t>(v)]) continue;
      const PlanUnit& cand = units[static_cast<size_t>(v)];
      if (cand.optimized) continue;  // composites are never dimensions
      bool reachable = false;
      for (int m : members) {
        const RelSet member = units[static_cast<size_t>(m)].rels;
        if (!graph.Adjacent(member, cand.rels)) continue;
        graph.EdgesBetweenSets(member, cand.rels, &edges);
        for (int eid : edges) {
          if (UnitSideUnique(graph, cand, eid)) {
            reachable = true;
            break;
          }
        }
        if (reachable) break;
      }
      if (reachable) {
        members.push_back(v);
        in_set[static_cast<size_t>(v)] = true;
        grew = true;
      }
    }
  }
  return members;
}

std::vector<std::vector<int>> GroupBranches(const JoinGraph& graph,
                                            const std::vector<PlanUnit>& units,
                                            const std::vector<int>& members,
                                            int fact) {
  std::vector<int> dims;
  for (int m : members) {
    if (m != fact) dims.push_back(m);
  }
  std::vector<bool> used(units.size(), false);
  std::vector<std::vector<int>> groups;
  for (int seed : dims) {
    if (used[static_cast<size_t>(seed)]) continue;
    std::vector<int> group = {seed};
    used[static_cast<size_t>(seed)] = true;
    for (size_t i = 0; i < group.size(); ++i) {
      for (int v : dims) {
        if (used[static_cast<size_t>(v)]) continue;
        if (graph.Adjacent(units[static_cast<size_t>(group[i])].rels,
                           units[static_cast<size_t>(v)].rels)) {
          group.push_back(v);
          used[static_cast<size_t>(v)] = true;
        }
      }
    }
    std::sort(group.begin(), group.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace bqo
