#include "src/optimizer/dp_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace bqo {

namespace {

/// Order-independent cardinality estimate of the join of a relation set:
/// product of filtered cardinalities times one containment factor per edge.
/// This is the set-function that makes filter-blind Cout DP-decomposable
/// (the cost of extending an order depends only on the set reached).
class SetCardEstimator {
 public:
  explicit SetCardEstimator(const JoinGraph& graph) : graph_(graph) {
    // Per-edge distinct estimates, Cardenas-scaled by local predicates.
    for (const JoinEdge& e : graph.edges()) {
      edge_sel_.push_back(1.0 /
                          std::max({Distinct(e.left, e.left_cols),
                                    Distinct(e.right, e.right_cols), 1.0}));
    }
  }

  double Card(RelSet set) {
    auto it = memo_.find(set);
    if (it != memo_.end()) return it->second;
    double card = 1.0;
    for (int r = 0; r < graph_.num_relations(); ++r) {
      if (RelSetContains(set, r)) {
        card *= std::max(graph_.relation(r).filtered_rows, 1.0);
      }
    }
    for (int e = 0; e < graph_.num_edges(); ++e) {
      const JoinEdge& edge = graph_.edge(e);
      if (RelSetContains(set, edge.left) &&
          RelSetContains(set, edge.right)) {
        card *= edge_sel_[static_cast<size_t>(e)];
      }
    }
    card = std::max(card, 1.0);
    memo_.emplace(set, card);
    return card;
  }

 private:
  double Distinct(int rel, const std::vector<std::string>& cols) const {
    const RelationRef& r = graph_.relation(rel);
    if (r.table == nullptr) {
      return std::max(r.filtered_rows, 1.0);
    }
    double d = 1.0;
    for (const auto& col : cols) {
      const int idx = r.table->ColumnIndex(col);
      double cd = idx < 0 ? r.base_rows
                          : static_cast<double>(
                                r.table->column(idx).CountDistinct());
      if (cd <= 0) cd = std::max(r.base_rows, 1.0);
      // Yao scaling under the local predicate (see EstimatedCoutModel).
      const double base = std::max(r.base_rows, 1.0);
      const double sel = std::min(1.0, r.filtered_rows / base);
      const double reduced = cd * (1.0 - std::pow(1.0 - sel, base / cd));
      d *= std::max(1.0, std::min(cd, reduced));
    }
    return std::max(1.0, std::min(d, std::max(r.filtered_rows, 1.0)));
  }

  const JoinGraph& graph_;
  std::vector<double> edge_sel_;
  std::unordered_map<RelSet, double> memo_;
};

struct DpEntry {
  double cost = std::numeric_limits<double>::infinity();
  std::vector<int> order;
};

Plan RightDeepDp(const JoinGraph& graph, SetCardEstimator* est) {
  const int n = graph.num_relations();
  std::unordered_map<RelSet, DpEntry> table;
  // Seed singletons: Cout of a leaf is its filtered cardinality.
  for (int r = 0; r < n; ++r) {
    DpEntry e;
    e.cost = std::max(graph.relation(r).filtered_rows, 1.0);
    e.order = {r};
    table.emplace(RelBit(r), std::move(e));
  }
  // Expand by popcount (every state processed once per size).
  std::vector<std::vector<RelSet>> by_size(static_cast<size_t>(n + 1));
  for (int r = 0; r < n; ++r) by_size[1].push_back(RelBit(r));
  for (int size = 1; size < n; ++size) {
    for (RelSet set : by_size[static_cast<size_t>(size)]) {
      const DpEntry& cur = table.at(set);
      const RelSet neighbors = graph.Neighbors(set);
      for (int r = 0; r < n; ++r) {
        if (!RelSetContains(neighbors, r)) continue;
        const RelSet next = set | RelBit(r);
        const double add =
            std::max(graph.relation(r).filtered_rows, 1.0) +
            est->Card(next);
        const double cost = cur.cost + add;
        auto [it, inserted] = table.try_emplace(next);
        if (inserted) by_size[static_cast<size_t>(size + 1)].push_back(next);
        if (cost < it->second.cost) {
          it->second.cost = cost;
          it->second.order = cur.order;
          it->second.order.push_back(r);
        }
      }
    }
  }
  const RelSet all = graph.AllRels();
  BQO_CHECK_MSG(table.count(all) > 0, "join graph is disconnected");
  return BuildRightDeepPlan(graph, table.at(all).order);
}

std::unique_ptr<PlanNode> BushyDp(const JoinGraph& graph,
                                  SetCardEstimator* est) {
  const int n = graph.num_relations();
  const RelSet all = graph.AllRels();
  struct Entry {
    double cost = std::numeric_limits<double>::infinity();
    std::unique_ptr<PlanNode> plan;
  };
  std::unordered_map<RelSet, Entry> table;
  for (int r = 0; r < n; ++r) {
    Entry e;
    e.cost = std::max(graph.relation(r).filtered_rows, 1.0);
    e.plan = MakeLeaf(graph, r);
    table.emplace(RelBit(r), std::move(e));
  }
  // Iterate all subsets in increasing numeric order (submasks are smaller).
  for (RelSet set = 1; set <= all; ++set) {
    if (RelSetCount(set) < 2) continue;
    if (!graph.IsConnected(set)) continue;
    Entry best;
    // Enumerate proper submask partitions (each unordered pair once via the
    // lowest-bit convention).
    const RelSet low = set & (~set + 1);
    for (RelSet s1 = (set - 1) & set; s1 != 0; s1 = (s1 - 1) & set) {
      if ((s1 & low) == 0) continue;  // canonical side holds the low bit
      const RelSet s2 = set & ~s1;
      auto it1 = table.find(s1);
      auto it2 = table.find(s2);
      if (it1 == table.end() || it2 == table.end()) continue;
      if (!graph.Adjacent(s1, s2)) continue;
      const double cost =
          it1->second.cost + it2->second.cost + est->Card(set);
      if (cost < best.cost) {
        // Smaller side builds (standard hash-join convention).
        const bool s1_builds = est->Card(s1) <= est->Card(s2);
        auto build = (s1_builds ? it1 : it2)->second.plan.get();
        auto probe = (s1_builds ? it2 : it1)->second.plan.get();
        // Clone from stored subplans (they may serve several supersets).
        Plan tmp;
        tmp.graph = &graph;
        best.cost = cost;
        std::unique_ptr<PlanNode> joined = MakeJoin(
            graph, ClonePlanNode(*build), ClonePlanNode(*probe));
        BQO_CHECK(joined != nullptr);
        best.plan = std::move(joined);
      }
    }
    if (best.plan != nullptr) {
      table[set] = std::move(best);
    }
  }
  auto it = table.find(all);
  BQO_CHECK_MSG(it != table.end(), "join graph is disconnected");
  return std::move(it->second.plan);
}

}  // namespace

Plan OptimizeGreedy(const JoinGraph& graph, CoutModel* model) {
  (void)model;
  SetCardEstimator est(graph);
  const int n = graph.num_relations();
  int start = 0;
  for (int r = 1; r < n; ++r) {
    if (graph.relation(r).filtered_rows <
        graph.relation(start).filtered_rows) {
      start = r;
    }
  }
  std::vector<int> order = {start};
  RelSet set = RelBit(start);
  while (static_cast<int>(order.size()) < n) {
    const RelSet neighbors = graph.Neighbors(set);
    int best_rel = -1;
    double best_card = std::numeric_limits<double>::infinity();
    for (int r = 0; r < n; ++r) {
      if (!RelSetContains(neighbors, r)) continue;
      const double card = est.Card(set | RelBit(r));
      if (card < best_card) {
        best_card = card;
        best_rel = r;
      }
    }
    BQO_CHECK_MSG(best_rel >= 0, "join graph is disconnected");
    order.push_back(best_rel);
    set |= RelBit(best_rel);
  }
  return BuildRightDeepPlan(graph, order);
}

Plan OptimizeDpBaseline(const JoinGraph& graph, CoutModel* model,
                        const DpOptions& options) {
  if (graph.num_relations() == 1) {
    Plan plan;
    plan.graph = &graph;
    plan.root = MakeLeaf(graph, 0);
    plan.Renumber();
    return plan;
  }
  if (graph.num_relations() > options.max_dp_relations) {
    return OptimizeGreedy(graph, model);
  }
  SetCardEstimator est(graph);
  if (!options.bushy) {
    return RightDeepDp(graph, &est);
  }
  Plan plan;
  plan.graph = &graph;
  plan.root = BushyDp(graph, &est);
  plan.Renumber();
  return plan;
}

}  // namespace bqo
