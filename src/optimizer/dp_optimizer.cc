#include "src/optimizer/dp_optimizer.h"

#include <algorithm>
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
  SetCardEstimator(const JoinGraph& graph, EstimatedCoutModel* model)
      : graph_(graph) {
    // Per-edge containment factor from the key's distinct count on
    // each side, as the model estimates it at that side's leaf.
    for (const JoinEdge& e : graph.edges()) {
      const double d_left =
          model->LeafKeyDistinct(graph, e.left, e.left_col_ids);
      const double d_right =
          model->LeafKeyDistinct(graph, e.right, e.right_col_ids);
      edge_sel_.push_back(1.0 / std::max({d_left, d_right, 1.0}));
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

}  // namespace

Plan OptimizeGreedy(const JoinGraph& graph, EstimatedCoutModel* model) {
  SetCardEstimator est(graph, model);
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

Plan OptimizeDpBaseline(const JoinGraph& graph, EstimatedCoutModel* model) {
  if (graph.num_relations() == 1) {
    Plan plan;
    plan.graph = &graph;
    plan.root = MakeLeaf(graph, 0);
    plan.Renumber();
    return plan;
  }
  if (graph.num_relations() > kMaxDpRelations) {
    return OptimizeGreedy(graph, model);
  }
  SetCardEstimator est(graph, model);
  return RightDeepDp(graph, &est);
}

}  // namespace bqo
