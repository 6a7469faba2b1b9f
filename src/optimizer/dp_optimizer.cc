#include "src/optimizer/dp_optimizer.h"

#include <algorithm>
#include <limits>
#include <vector>

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

  double Card(RelSet set) const {
    double card = 1.0;
    ForEachRel(set, [&](int r) {
      card *= std::max(graph_.relation(r).filtered_rows, 1.0);
    });
    for (int e = 0; e < graph_.num_edges(); ++e) {
      const JoinEdge& edge = graph_.edge(e);
      if (RelSetContains(set, edge.left) &&
          RelSetContains(set, edge.right)) {
        card *= edge_sel_[static_cast<size_t>(e)];
      }
    }
    return std::max(card, 1.0);
  }

 private:
  const JoinGraph& graph_;
  std::vector<double> edge_sel_;
};

/// Exhaustive right-deep DP over connected relation sets, expanded by
/// popcount. Each set keeps only its best cost and the relation that
/// extended its best prefix, in flat tables indexed by the set itself
/// (n <= kMaxDpRelations, so 2^n entries): the best order is read back
/// from the full set by peeling last relations off. A set's entry is
/// final before any larger set reads it (every improvement to a set of
/// size k happens while expanding size k - 1), so the order read back is
/// the one the strict-< first-wins expansion picked.
Plan RightDeepDp(const JoinGraph& graph, const SetCardEstimator& est) {
  const int n = graph.num_relations();
  const size_t num_sets = size_t{1} << n;
  std::vector<double> cost(num_sets, std::numeric_limits<double>::infinity());
  std::vector<int8_t> last(num_sets, -1);
  // Each set's join cardinality is computed once, the first time an
  // expansion reaches it (0 = not yet; a cardinality is at least 1).
  std::vector<double> card(num_sets, 0.0);
  // Expand by popcount (every state processed once per size), in the
  // order states are first reached.
  std::vector<std::vector<RelSet>> by_size(static_cast<size_t>(n + 1));
  for (int r = 0; r < n; ++r) {
    // Seed singletons: Cout of a leaf is its filtered cardinality.
    cost[RelBit(r)] = std::max(graph.relation(r).filtered_rows, 1.0);
    last[RelBit(r)] = static_cast<int8_t>(r);
    by_size[1].push_back(RelBit(r));
  }
  for (int size = 1; size < n; ++size) {
    for (RelSet set : by_size[static_cast<size_t>(size)]) {
      const double cur = cost[set];
      ForEachRel(graph.Neighbors(set), [&](int r) {
        const RelSet next = set | RelBit(r);
        if (card[next] == 0.0) {
          card[next] = est.Card(next);
          by_size[static_cast<size_t>(size + 1)].push_back(next);
        }
        const double c =
            cur + (std::max(graph.relation(r).filtered_rows, 1.0) + card[next]);
        if (c < cost[next]) {
          cost[next] = c;
          last[next] = static_cast<int8_t>(r);
        }
      });
    }
  }
  RelSet set = graph.AllRels();
  BQO_CHECK_MSG(last[set] >= 0, "join graph is disconnected");
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    order[static_cast<size_t>(i)] = last[set];
    set &= ~RelBit(last[set]);
  }
  return BuildRightDeepPlan(graph, order);
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
  return RightDeepDp(graph, SetCardEstimator(graph, model));
}

}  // namespace bqo
