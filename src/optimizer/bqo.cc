#include "src/optimizer/bqo.h"

#include <algorithm>
#include <limits>

#include "src/plan/pushdown.h"

namespace bqo {

namespace {

/// A branch group plus the metadata SortBranches needs.
struct Group {
  std::vector<int> unit_idxs;     ///< members (indexes into units)
  std::vector<int> fact_adjacent; ///< members directly joined to the fact
  std::vector<int> outward;       ///< members in FactOutwardOrder
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

/// Away-first DFS from `u` over the unvisited units of `group`: visit
/// deeper (farther-from-fact) neighbors before shallower ones, appending
/// to `order`.
void AwayFirstVisit(const JoinGraph& graph, const std::vector<PlanUnit>& units,
                    const std::vector<int>& group,
                    const std::vector<int>& depth, int u,
                    std::vector<bool>* visited, std::vector<int>* order) {
  (*visited)[static_cast<size_t>(u)] = true;
  order->push_back(u);
  std::vector<int> neighbors;
  for (int v : group) {
    if ((*visited)[static_cast<size_t>(v)]) continue;
    if (graph.Adjacent(units[static_cast<size_t>(u)].rels,
                       units[static_cast<size_t>(v)].rels)) {
      neighbors.push_back(v);
    }
  }
  std::sort(neighbors.begin(), neighbors.end(), [&](int a, int b) {
    return depth[static_cast<size_t>(a)] > depth[static_cast<size_t>(b)];
  });
  for (int v : neighbors) {
    if (!(*visited)[static_cast<size_t>(v)]) {
      AwayFirstVisit(graph, units, group, depth, v, visited, order);
    }
  }
}

/// Away-first DFS order of `group` starting at `start`. For a chain branch
/// starting at R_k this yields exactly the Theorem 5.3 candidate order
/// (R_k, R_{k+1}, ..., R_n, R_{k-1}, ..., R_1).
std::vector<int> AwayFirstOrder(const JoinGraph& graph,
                                const std::vector<PlanUnit>& units,
                                const std::vector<int>& group, int start,
                                const std::vector<int>& depth) {
  std::vector<int> order;
  std::vector<bool> visited(units.size(), false);
  AwayFirstVisit(graph, units, group, depth, start, &visited, &order);
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
                double fact_card, std::vector<Step>* steps) {
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (gi == skip) continue;
    for (int u : groups[gi].outward) {
      steps->push_back(
          Step{u, !(units[static_cast<size_t>(u)].est_card > fact_card)});
    }
  }
}

/// The candidates of one OptimizeSnowflakeUnits call, assembled without
/// copying a plan tree: every step's unit lends its fragment to one reused
/// Plan, whose join nodes are reused too, and gets it back afterwards.
class CandidateChain {
 public:
  CandidateChain(const JoinGraph& graph, std::vector<PlanUnit>* units)
      : graph_(graph), units_(*units) {
    plan_.graph = &graph;
  }

  /// Cost the candidate `steps` describes, after Algorithm 1 push-down.
  CoutBreakdown Cost(const std::vector<Step>& steps, CoutModel* model) {
    Assemble(steps);
    PushDownBitvectors(&plan_);
    CoutBreakdown cost = model->Compute(plan_);
    GiveBack(steps);
    return cost;
  }

  /// A copy of the candidate `steps` describes: renumbered, with no filter
  /// annotations.
  std::unique_ptr<PlanNode> Copy(const std::vector<Step>& steps) {
    Assemble(steps);
    Plan copy;
    copy.graph = &graph_;
    copy.root = ClonePlanNode(*plan_.root);
    GiveBack(steps);
    copy.Renumber();
    ClearBitvectors(&copy);
    return std::move(copy.root);
  }

 private:
  /// Build plan_ bottom up from the steps' lent fragments.
  void Assemble(const std::vector<Step>& steps) {
    if (joins_.size() + 1 < steps.size()) joins_.resize(steps.size() - 1);
    std::unique_ptr<PlanNode> chain = Lend(steps[0].unit);
    for (size_t i = 1; i < steps.size(); ++i) {
      std::unique_ptr<PlanNode> join = std::move(joins_[i - 1]);
      if (join == nullptr) {
        join = std::make_unique<PlanNode>();
        join->kind = PlanNode::Kind::kJoin;
      }
      std::unique_ptr<PlanNode> unit = Lend(steps[i].unit);
      join->rel_set = unit->rel_set | chain->rel_set;
      graph_.EdgesBetweenSets(unit->rel_set, chain->rel_set, &join->edge_ids);
      BQO_CHECK_MSG(!join->edge_ids.empty(),
                    "candidate step is a cross product");
      (steps[i].unit_builds ? join->build : join->probe) = std::move(unit);
      (steps[i].unit_builds ? join->probe : join->build) = std::move(chain);
      chain = std::move(join);
    }
    plan_.root = std::move(chain);
  }

  /// Take plan_ apart top down: each join gives its unit's fragment back
  /// and hands its chain side on.
  void GiveBack(const std::vector<Step>& steps) {
    std::unique_ptr<PlanNode> chain = std::move(plan_.root);
    for (size_t i = steps.size() - 1; i > 0; --i) {
      std::unique_ptr<PlanNode> join = std::move(chain);
      Return(steps[i].unit,
             std::move(steps[i].unit_builds ? join->build : join->probe));
      chain = std::move(steps[i].unit_builds ? join->probe : join->build);
      joins_[i - 1] = std::move(join);
    }
    Return(steps[0].unit, std::move(chain));
  }

  std::unique_ptr<PlanNode> Lend(int unit) {
    return std::move(units_[static_cast<size_t>(unit)].fragment);
  }
  void Return(int unit, std::unique_ptr<PlanNode> fragment) {
    units_[static_cast<size_t>(unit)].fragment = std::move(fragment);
  }

  const JoinGraph& graph_;
  std::vector<PlanUnit>& units_;
  Plan plan_;
  std::vector<std::unique_ptr<PlanNode>> joins_;  ///< spare join nodes
};

}  // namespace

SnowflakeChoice OptimizeSnowflakeUnits(const JoinGraph& graph,
                                       std::vector<PlanUnit>* units_in,
                                       const std::vector<int>& members,
                                       int fact, CoutModel* model) {
  BQO_CHECK(!members.empty());
  std::vector<PlanUnit>& units = *units_in;
  const PlanUnit& fact_unit = units[static_cast<size_t>(fact)];

  const std::vector<int> depth = DepthsFromFact(graph, units, members, fact);

  // ---- SortBranches (Algorithm 2 lines 17-34) ----
  std::vector<Group> groups;
  std::vector<int> edges;
  for (auto& idxs : GroupBranches(graph, units, members, fact)) {
    Group g;
    g.unit_idxs = std::move(idxs);
    g.outward = FactOutwardOrder(g, depth);
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
      graph.EdgesBetweenSets(adj_unit.rels, fact_unit.rels, &edges);
      for (int eid : edges) {
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

  // Every candidate is described by its steps and costed on lent
  // fragments; only the cheapest one's steps are kept, and that candidate
  // is built once at the end.
  CandidateChain candidates(graph, &units);
  std::vector<Step> steps;
  std::vector<Step> best_steps;
  double best = std::numeric_limits<double>::infinity();
  double best_card = 0;
  auto consider = [&]() {
    const CoutBreakdown b = candidates.Cost(steps, model);
    if (b.total < best) {
      best = b.total;
      best_card = b.node_output[0];
      best_steps = steps;
    }
  };

  // ---- Candidate 0: fact right-most (lines 1-2) ----
  steps.push_back(Step{fact, true});
  JoinGroups(units, groups, groups.size(), fact_unit.est_card, &steps);
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
      JoinGroups(units, groups, gi, fact_unit.est_card, &steps);
      consider();
    }
  }

  SnowflakeChoice choice;
  choice.fragment = candidates.Copy(best_steps);
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
        OptimizeSnowflakeUnits(graph, &units, members, fact, model);

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
