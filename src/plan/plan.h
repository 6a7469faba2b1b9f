// Physical join plans: binary trees of hash joins over leaf scans, plus the
// bitvector-filter annotations produced by Algorithm 1.
//
// The same annotated Plan object is consumed by the Cout models (costing)
// and by the execution engine (src/exec), so the costed plan and the
// executed plan cannot diverge.
//
// Conventions (matching the paper's Figure 1):
//  * Join.build is the side the hash table (and the bitvector filter) is
//    built from; Join.probe is streamed.
//  * A right deep tree T(X0, X1, ..., Xn) has X0 as the right-most leaf
//    (the deepest probe input) and Xn as the left-most leaf (the build side
//    of the root join).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/plan/join_graph.h"

namespace bqo {

/// \brief A bitvector filter instance placed in a plan by Algorithm 1.
struct PlanFilter {
  int id = -1;
  int source_join = -1;  ///< plan-node id of the hash join that builds it
  /// Key columns as join-column ids (JoinGraph::column): the build-side
  /// columns and, index-aligned, the probe-side columns they match.
  std::vector<int> build_col_ids;
  std::vector<int> probe_col_ids;
  int applied_at = -1;   ///< plan-node id whose output it filters
  /// Estimated fraction of tuples it eliminates at the application site
  /// (lambda in Section 6.3); filled by the cost model, used for pruning.
  double estimated_lambda = 0.0;
  bool pruned = false;   ///< dropped by cost-based filtering (Section 6.3)
};

struct PlanNode {
  enum class Kind : uint8_t { kLeaf, kJoin };

  Kind kind = Kind::kLeaf;
  int id = -1;            ///< preorder index, assigned by Plan::Renumber()
  int relation = -1;      ///< kLeaf: index into the join graph
  std::unique_ptr<PlanNode> build;  ///< kJoin
  std::unique_ptr<PlanNode> probe;  ///< kJoin
  std::vector<int> edge_ids;        ///< kJoin: graph edges applied here,
                                    ///< ascending (MakeJoin)
  RelSet rel_set = 0;     ///< relations under this subtree

  /// Filter ids (into Plan::filters) applied on top of this node's output.
  std::vector<int> applied_filters;
  /// kJoin: filter id created from this join's build side, or -1.
  int created_filter = -1;

  bool IsLeaf() const { return kind == Kind::kLeaf; }
};

/// \brief An operator tree for one query, plus its filter annotations.
struct Plan {
  const JoinGraph* graph = nullptr;
  std::unique_ptr<PlanNode> root;
  std::vector<PlanFilter> filters;

  /// Nodes indexed by id (borrowed pointers into the tree); rebuilt by
  /// Renumber().
  std::vector<PlanNode*> nodes;

  /// \brief Assign preorder ids and (re)build the node index.
  void Renumber();

  /// \brief Deep copy (filters and annotations included).
  Plan Clone() const;

  int num_joins() const;

  /// \brief True if every join node has at least one edge (no cross
  /// products) and build/probe rel-sets partition the node's rel_set.
  bool Validate() const;

  /// \brief True if the tree is right deep: every join's build child is a
  /// leaf (the probe chain carries the composite).
  bool IsRightDeep() const;

  /// \brief Leaf order X0..Xn for right-deep plans (X0 = deepest probe).
  std::vector<int> RightDeepOrder() const;

  /// \brief Human-readable multi-line rendering with filter annotations.
  std::string ToString() const;

  /// \brief One-line structural summary, e.g. "(k HJ (t HJ mk))".
  std::string Signature() const;
};

/// \brief Build a leaf node for `rel`.
std::unique_ptr<PlanNode> MakeLeaf(const JoinGraph& graph, int rel);

/// \brief Deep-copy a plan subtree (ids and annotations included).
std::unique_ptr<PlanNode> ClonePlanNode(const PlanNode& node);

/// \brief Join two subtrees; the edges applied are all graph edges between
/// the two rel-sets. Returns null if that edge set is empty (cross product).
std::unique_ptr<PlanNode> MakeJoin(const JoinGraph& graph,
                                   std::unique_ptr<PlanNode> build,
                                   std::unique_ptr<PlanNode> probe);

/// \brief Construct the right deep tree T(order[0], ..., order[n]).
/// Returns a plan with no filter annotations (run PushDownBitvectors).
/// Dies if a step would be a cross product; use IsValidRightDeepOrder to
/// pre-check enumerated permutations.
Plan BuildRightDeepPlan(const JoinGraph& graph, const std::vector<int>& order);

/// \brief True if every prefix of `order` induces a connected subgraph.
bool IsValidRightDeepOrder(const JoinGraph& graph,
                           const std::vector<int>& order);

}  // namespace bqo
