#include "src/plan/pushdown.h"

namespace bqo {

namespace {

/// A filter on its way down the plan, with the relations its probe columns
/// need (computed once, when the filter is created).
struct Routed {
  int fid;
  RelSet need;
};

/// Overwrite `f` with the filter of hash join `join`: key columns are the
/// equi-join columns of every edge applied at the join, build side first.
/// Every field is reset, so an entry left by an earlier push-down is reused
/// with its column storage.
void FillFilterFor(const JoinGraph& graph, const PlanNode& join, int id,
                   PlanFilter* f) {
  f->id = id;
  f->source_join = join.id;
  f->build_col_ids.clear();
  f->probe_col_ids.clear();
  f->applied_at = -1;
  f->estimated_lambda = 0.0;
  f->pruned = false;
  // Deterministic column order: by edge id (edge_ids is ascending), then
  // declared column order.
  for (int eid : join.edge_ids) {
    const JoinEdge& e = graph.edge(eid);
    const bool left_in_build = RelSetContains(join.build->rel_set, e.left);
    const std::vector<int>& build_ids =
        left_in_build ? e.left_col_ids : e.right_col_ids;
    const std::vector<int>& probe_ids =
        left_in_build ? e.right_col_ids : e.left_col_ids;
    f->build_col_ids.insert(f->build_col_ids.end(), build_ids.begin(),
                            build_ids.end());
    f->probe_col_ids.insert(f->probe_col_ids.end(), probe_ids.begin(),
                            probe_ids.end());
  }
}

/// One push-down: the filters reaching a node are the entries of `stack_`
/// from the node's `begin` to the top. A node pushes each child's share on
/// top, recurses, and pops it again, so one stack routes every filter.
class PushDown {
 public:
  PushDown(Plan* plan, std::vector<Routed>* stack)
      : plan_(plan), graph_(*plan->graph), stack_(*stack) {}

  /// Annotate `node`'s subtree with the filters stack_[begin..] and the
  /// ones its joins create; pops the stack back to `begin`.
  void Visit(PlanNode* node, size_t begin) {
    node->applied_filters.clear();
    if (node->kind == PlanNode::Kind::kLeaf) {
      node->created_filter = -1;
      for (size_t i = begin; i < stack_.size(); ++i) {
        Apply(stack_[i].fid, node);
      }
      stack_.resize(begin);
      return;
    }

    // A hash join creates a filter from its build side and pushes it down
    // the probe side (Algorithm 1 lines 8-10).
    const int created = next_filter_++;
    if (static_cast<size_t>(created) == plan_->filters.size()) {
      plan_->filters.emplace_back();
    }
    PlanFilter& f = plan_->filters[static_cast<size_t>(created)];
    FillFilterFor(graph_, *node, created, &f);
    node->created_filter = created;
    const RelSet created_need = FilterProbeRels(graph_, f);

    // Route incoming filters (lines 12-23): a filter descends into the
    // unique child whose output contains all of its probe columns;
    // otherwise it is residual and applied on top of this join.
    const RelSet build_rels = node->build->rel_set;
    const RelSet probe_rels = node->probe->rel_set;
    const size_t end = stack_.size();
    for (size_t i = begin; i < end; ++i) {
      const RelSet need = stack_[i].need;
      if ((need & ~build_rels) == 0) {
        stack_.push_back(stack_[i]);
      } else if ((need & ~probe_rels) != 0) {
        Apply(stack_[i].fid, node);
      }
    }
    Visit(node->build.get(), end);
    stack_.push_back(Routed{created, created_need});
    for (size_t i = begin; i < end; ++i) {
      const RelSet need = stack_[i].need;
      if ((need & ~build_rels) != 0 && (need & ~probe_rels) == 0) {
        stack_.push_back(stack_[i]);
      }
    }
    Visit(node->probe.get(), end);
    stack_.resize(begin);
  }

  int num_filters() const { return next_filter_; }

 private:
  void Apply(int fid, PlanNode* node) {
    plan_->filters[static_cast<size_t>(fid)].applied_at = node->id;
    node->applied_filters.push_back(fid);
  }

  Plan* plan_;
  const JoinGraph& graph_;
  std::vector<Routed>& stack_;
  int next_filter_ = 0;  ///< filters are numbered in join preorder
};

}  // namespace

RelSet FilterProbeRels(const JoinGraph& graph, const PlanFilter& filter) {
  RelSet set = 0;
  for (int cid : filter.probe_col_ids) set |= RelBit(graph.column(cid).rel);
  return set;
}

void ClearBitvectors(Plan* plan) {
  plan->filters.clear();
  for (PlanNode* node : plan->nodes) {
    node->applied_filters.clear();
    node->created_filter = -1;
  }
}

void PushDownBitvectors(Plan* plan) {
  BQO_CHECK(plan != nullptr && plan->root != nullptr);
  plan->Renumber();
  // The optimizer pushes down every candidate it costs; the routing stack
  // keeps its storage from one call to the next.
  thread_local std::vector<Routed> stack;
  stack.clear();
  PushDown pass(plan, &stack);
  pass.Visit(plan->root.get(), 0);
  plan->filters.resize(static_cast<size_t>(pass.num_filters()));
}

}  // namespace bqo
