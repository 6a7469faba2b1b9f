#include "src/plan/pushdown.h"

namespace bqo {

namespace {

/// Build the filter descriptor for a hash join node: key columns are the
/// equi-join columns of every edge applied at the join, build side first.
PlanFilter MakeFilterFor(const Plan& plan, const PlanNode& join) {
  const JoinGraph& graph = *plan.graph;
  PlanFilter f;
  f.source_join = join.id;
  // Deterministic column order: by edge id (edge_ids is ascending), then
  // declared column order.
  for (int eid : join.edge_ids) {
    const JoinEdge& e = graph.edge(eid);
    const bool left_in_build = RelSetContains(join.build->rel_set, e.left);
    const std::vector<int>& build_ids =
        left_in_build ? e.left_col_ids : e.right_col_ids;
    const std::vector<int>& probe_ids =
        left_in_build ? e.right_col_ids : e.left_col_ids;
    f.build_col_ids.insert(f.build_col_ids.end(), build_ids.begin(),
                           build_ids.end());
    f.probe_col_ids.insert(f.probe_col_ids.end(), probe_ids.begin(),
                           probe_ids.end());
  }
  return f;
}

void PushDownRec(Plan* plan, PlanNode* node, std::vector<int> incoming) {
  if (node->kind == PlanNode::Kind::kLeaf) {
    for (int fid : incoming) {
      plan->filters[static_cast<size_t>(fid)].applied_at = node->id;
      node->applied_filters.push_back(fid);
    }
    return;
  }

  // A hash join creates a filter from its build side and pushes it down
  // the probe side (Algorithm 1 lines 8-10).
  PlanFilter created = MakeFilterFor(*plan, *node);
  created.id = static_cast<int>(plan->filters.size());
  node->created_filter = created.id;
  plan->filters.push_back(std::move(created));

  std::vector<int> to_build, to_probe;
  to_probe.push_back(node->created_filter);

  // Route incoming filters (lines 12-23): a filter descends into the unique
  // child whose output contains all of its probe columns; otherwise it is
  // residual and applied on top of this join.
  for (int fid : incoming) {
    const RelSet need = FilterProbeRels(
        *plan->graph, plan->filters[static_cast<size_t>(fid)]);
    if ((need & ~node->build->rel_set) == 0) {
      to_build.push_back(fid);
    } else if ((need & ~node->probe->rel_set) == 0) {
      to_probe.push_back(fid);
    } else {
      plan->filters[static_cast<size_t>(fid)].applied_at = node->id;
      node->applied_filters.push_back(fid);
    }
  }

  PushDownRec(plan, node->build.get(), std::move(to_build));
  PushDownRec(plan, node->probe.get(), std::move(to_probe));
}

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
  ClearBitvectors(plan);
  plan->filters.reserve(plan->nodes.size() / 2);  // one per join
  PushDownRec(plan, plan->root.get(), {});
}

}  // namespace bqo
