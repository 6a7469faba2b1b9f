#include "src/optimizer/bqo.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "src/plan/pushdown.h"

namespace bqo {

namespace {

/// A branch group plus the metadata SortBranches needs.
struct Group {
  std::vector<int> unit_idxs;     ///< members (indexes into units)
  std::vector<int> fact_adjacent; ///< members directly joined to the fact
  double priority = 0;            ///< paper's P0..P3 (higher joins earlier)
  double retention = 1.0;         ///< est. fraction of fact rows kept
};

/// One step of a candidate, bottom to top: the unit joined to the chain
/// built so far, on the build side (`unit_builds`) or the probe side. The
/// bottom step's side is unused.
struct Step {
  int unit = -1;
  bool unit_builds = true;
};

double UnitBaseCard(const JoinGraph& graph, const PlanUnit& unit) {
  if (!unit.IsSingleRelation()) return unit.est_card;
  return std::max(graph.relation(unit.SingleRelation()).base_rows, 1.0);
}

/// BFS depth of each member unit from the fact, indexed by unit (-1 for
/// non-members); used to orient DFS away from the fact when enumerating
/// within-branch start positions.
std::vector<int> DepthsFromFact(const JoinGraph& graph,
                                const std::vector<PlanUnit>& units,
                                const std::vector<int>& members, int fact) {
  std::vector<int> depth(units.size(), -1);
  depth[static_cast<size_t>(fact)] = 0;
  std::vector<int> frontier = {fact};
  while (!frontier.empty()) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v : members) {
        if (depth[static_cast<size_t>(v)] >= 0) continue;
        if (graph.Adjacent(units[static_cast<size_t>(u)].rels,
                           units[static_cast<size_t>(v)].rels)) {
          depth[static_cast<size_t>(v)] = depth[static_cast<size_t>(u)] + 1;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return depth;
}

/// Away-first DFS order of `group` starting at `start`: visit deeper
/// (farther-from-fact) neighbors before shallower ones. For a chain branch
/// starting at R_k this yields exactly the Theorem 5.3 candidate order
/// (R_k, R_{k+1}, ..., R_n, R_{k-1}, ..., R_1).
std::vector<int> AwayFirstOrder(const JoinGraph& graph,
                                const std::vector<PlanUnit>& units,
                                const std::vector<int>& group, int start,
                                const std::vector<int>& depth) {
  std::vector<int> order;
  std::vector<bool> visited(units.size(), false);
  // Recursive DFS with neighbor ordering by descending depth.
  std::function<void(int)> visit = [&](int u) {
    visited[static_cast<size_t>(u)] = true;
    order.push_back(u);
    std::vector<int> neighbors;
    for (int v : group) {
      if (visited[static_cast<size_t>(v)]) continue;
      if (graph.Adjacent(units[static_cast<size_t>(u)].rels,
                         units[static_cast<size_t>(v)].rels)) {
        neighbors.push_back(v);
      }
    }
    std::sort(neighbors.begin(), neighbors.end(), [&](int a, int b) {
      return depth[static_cast<size_t>(a)] > depth[static_cast<size_t>(b)];
    });
    for (int v : neighbors) {
      if (!visited[static_cast<size_t>(v)]) visit(v);
    }
  };
  visit(start);
  return order;
}

/// Fact-outward BFS order of a group (fact-adjacent units first): the
/// canonical partially-ordered placement used when the group sits above the
/// fact in the probe chain.
std::vector<int> FactOutwardOrder(const Group& group,
                                  const std::vector<int>& depth) {
  std::vector<int> order = group.unit_idxs;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int da = depth[static_cast<size_t>(a)];
    const int db = depth[static_cast<size_t>(b)];
    if (da != db) return da < db;
    return a < b;
  });
  return order;
}

/// JoinBranches (Algorithm 2 lines 9-16): extend the chain with every unit
/// of every group but `skip`, in order; a unit larger than the fact flips
/// to the probe side (the P3 rule, lines 12-13).
void JoinGroups(const std::vector<PlanUnit>& units,
                const std::vector<Group>& groups, size_t skip,
                const std::vector<int>& depth, double fact_card,
                std::vector<Step>* steps) {
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (gi == skip) continue;
    for (int u : FactOutwardOrder(groups[gi], depth)) {
      steps->push_back(
          Step{u, !(units[static_cast<size_t>(u)].est_card > fact_card)});
    }
  }
}

/// Build, renumber and push down the candidate `steps` describes.
Plan BuildCandidate(const JoinGraph& graph, const std::vector<PlanUnit>& units,
                    const std::vector<Step>& steps) {
  std::unique_ptr<PlanNode> chain =
      ClonePlanNode(*units[static_cast<size_t>(steps[0].unit)].fragment);
  for (size_t i = 1; i < steps.size(); ++i) {
    auto unit =
        ClonePlanNode(*units[static_cast<size_t>(steps[i].unit)].fragment);
    chain = steps[i].unit_builds
                ? MakeJoin(graph, std::move(unit), std::move(chain))
                : MakeJoin(graph, std::move(chain), std::move(unit));
    BQO_CHECK_MSG(chain != nullptr, "candidate step is a cross product");
  }
  Plan plan;
  plan.graph = &graph;
  plan.root = std::move(chain);
  plan.Renumber();
  PushDownBitvectors(&plan);
  return plan;
}

}  // namespace

SnowflakeChoice OptimizeSnowflakeUnits(const JoinGraph& graph,
                                       const std::vector<PlanUnit>& units,
                                       const std::vector<int>& members,
                                       int fact, CoutModel* model) {
  BQO_CHECK(!members.empty());
  const PlanUnit& fact_unit = units[static_cast<size_t>(fact)];

  if (members.size() == 1) {
    Plan plan;
    plan.graph = &graph;
    plan.root = ClonePlanNode(*fact_unit.fragment);
    plan.Renumber();
    SnowflakeChoice choice;
    choice.root_card = model->Compute(plan).node_output[0];
    choice.fragment = std::move(plan.root);
    return choice;
  }

  const std::vector<int> depth = DepthsFromFact(graph, units, members, fact);

  // ---- SortBranches (Algorithm 2 lines 17-34) ----
  std::vector<Group> groups;
  for (auto& idxs : GroupBranches(graph, units, members, fact)) {
    Group g;
    g.unit_idxs = std::move(idxs);
    for (int u : g.unit_idxs) {
      if (graph.Adjacent(units[static_cast<size_t>(u)].rels,
                         fact_unit.rels)) {
        g.fact_adjacent.push_back(u);
      }
    }
    // Retention: fraction of fact rows the group's semi-join keeps,
    // estimated from its fact-adjacent units under containment.
    for (int u : g.fact_adjacent) {
      const PlanUnit& unit = units[static_cast<size_t>(u)];
      const double base = UnitBaseCard(graph, unit);
      g.retention = std::min(
          g.retention, base <= 0 ? 1.0 : std::min(1.0, unit.est_card / base));
    }
    // Priorities (P0-P3). Higher priority = joined earlier (deeper).
    if (g.fact_adjacent.size() >= 2) {
      g.priority = static_cast<double>(g.fact_adjacent.size());  // P2
    } else {
      BQO_CHECK(!g.fact_adjacent.empty());
      const int adj = g.fact_adjacent[0];
      const PlanUnit& adj_unit = units[static_cast<size_t>(adj)];
      bool pkfk = false;
      for (int eid :
           graph.EdgesBetweenSets(adj_unit.rels, fact_unit.rels)) {
        if (UnitSideUnique(graph, adj_unit, eid)) pkfk = true;
      }
      if (!pkfk) {
        g.priority = 0;  // P0: no key join with the fact
      } else if (adj_unit.est_card < fact_unit.est_card) {
        g.priority = 1;  // P1: ordinary selective branch
      } else {
        g.priority = static_cast<double>(members.size()) + 2;  // P3
      }
    }
    groups.push_back(std::move(g));
  }
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.retention != b.retention) return a.retention < b.retention;
    return a.unit_idxs < b.unit_idxs;
  });

  // Every candidate is described by its steps, built from them, costed,
  // and kept only while it is the cheapest so far.
  std::vector<Step> steps;
  Plan best_plan;
  double best = std::numeric_limits<double>::infinity();
  double best_card = 0;
  auto consider = [&]() {
    Plan plan = BuildCandidate(graph, units, steps);
    const CoutBreakdown b = model->Compute(plan);
    if (b.total < best) {
      best = b.total;
      best_card = b.node_output[0];
      best_plan = std::move(plan);
    }
  };

  // ---- Candidate 0: fact right-most (lines 1-2) ----
  steps.push_back(Step{fact, true});
  JoinGroups(units, groups, groups.size(), depth, fact_unit.est_card, &steps);
  consider();

  // ---- Branch-first candidates (lines 3-7): for every group and every
  // start position within it, join that group below the fact. ----
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (int start : groups[gi].unit_idxs) {
      const std::vector<int> order =
          AwayFirstOrder(graph, units, groups[gi].unit_idxs, start, depth);
      if (order.size() != groups[gi].unit_idxs.size()) continue;
      steps.clear();
      RelSet chain = units[static_cast<size_t>(order[0])].rels;
      steps.push_back(Step{order[0], true});
      bool valid = true;
      for (size_t i = 1; i < order.size() && valid; ++i) {
        const RelSet rels = units[static_cast<size_t>(order[i])].rels;
        valid = graph.Adjacent(rels, chain);
        chain |= rels;
        steps.push_back(Step{order[i], true});
      }
      // Fact joins on top of the branch (as the build side: Lemma 5's
      // T(Rk, R0, ...) shape), then the remaining groups.
      if (!valid || !graph.Adjacent(fact_unit.rels, chain)) continue;
      steps.push_back(Step{fact, true});
      JoinGroups(units, groups, gi, depth, fact_unit.est_card, &steps);
      consider();
    }
  }

  SnowflakeChoice choice;
  choice.fragment = std::move(best_plan.root);
  choice.root_card = best_card;
  return choice;
}

Plan OptimizeBqo(const JoinGraph& graph, CoutModel* model) {
  std::vector<PlanUnit> units = MakeLeafUnits(graph);
  std::vector<int> active;
  for (size_t i = 0; i < units.size(); ++i) {
    active.push_back(static_cast<int>(i));
  }

  const int max_rounds = 2 * graph.num_relations() + 2;
  for (int round = 0; round < max_rounds; ++round) {
    if (active.size() == 1) break;

    std::vector<int> facts = FindFactUnits(graph, units, active);
    bool final_round = facts.size() <= 1;

    int fact;
    std::vector<int> members;
    if (!final_round) {
      // Smallest unoptimized fact first (Algorithm 3 line 9).
      fact = facts[0];
      for (int f : facts) {
        if (units[static_cast<size_t>(f)].est_card <
            units[static_cast<size_t>(fact)].est_card) {
          fact = f;
        }
      }
      members = ExpandSnowflake(graph, units, active, fact);
      if (members.size() == 1) {
        // Isolated fact (its neighbors are other facts): defer to the
        // final round rather than looping forever.
        units[static_cast<size_t>(fact)].optimized = true;
        continue;
      }
      if (members.size() == active.size()) final_round = true;
    }
    if (final_round) {
      members = active;
      if (facts.size() == 1) {
        fact = facts[0];
      } else {
        // No key-free relation (or several composites): treat the largest
        // unit as the fact; everything else hangs off it.
        fact = active[0];
        for (int u : active) {
          if (units[static_cast<size_t>(u)].est_card >
              units[static_cast<size_t>(fact)].est_card) {
            fact = u;
          }
        }
      }
    }

    SnowflakeChoice sub =
        OptimizeSnowflakeUnits(graph, units, members, fact, model);

    // Collapse the members into one optimized composite unit.
    PlanUnit composite;
    composite.rels = sub.fragment->rel_set;
    composite.optimized = true;
    composite.est_card = sub.root_card;
    composite.fragment = std::move(sub.fragment);

    std::vector<int> next_active;
    for (int u : active) {
      bool is_member = false;
      for (int m : members) {
        if (m == u) is_member = true;
      }
      if (!is_member) next_active.push_back(u);
    }
    units.push_back(std::move(composite));
    next_active.push_back(static_cast<int>(units.size()) - 1);
    active = std::move(next_active);
  }

  BQO_CHECK_EQ(active.size(), size_t{1});
  Plan plan;
  plan.graph = &graph;
  plan.root = std::move(units[static_cast<size_t>(active[0])].fragment);
  plan.Renumber();
  BQO_CHECK(plan.Validate());
  return plan;
}

}  // namespace bqo
