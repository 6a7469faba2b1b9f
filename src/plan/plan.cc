#include "src/plan/plan.h"

#include "src/common/string_util.h"

namespace bqo {

namespace {

void RenumberRec(PlanNode* node, int* next_id,
                 std::vector<PlanNode*>* nodes) {
  node->id = (*next_id)++;
  nodes->push_back(node);
  if (node->kind == PlanNode::Kind::kJoin) {
    RenumberRec(node->build.get(), next_id, nodes);
    RenumberRec(node->probe.get(), next_id, nodes);
  }
}

std::unique_ptr<PlanNode> CloneRec(const PlanNode& node) {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = node.kind;
  copy->id = node.id;
  copy->relation = node.relation;
  copy->edge_ids = node.edge_ids;
  copy->rel_set = node.rel_set;
  copy->applied_filters = node.applied_filters;
  copy->created_filter = node.created_filter;
  if (node.kind == PlanNode::Kind::kJoin) {
    copy->build = CloneRec(*node.build);
    copy->probe = CloneRec(*node.probe);
  }
  return copy;
}

bool ValidateRec(const PlanNode& node) {
  if (node.kind == PlanNode::Kind::kLeaf) {
    return node.relation >= 0 && node.rel_set == RelBit(node.relation);
  }
  if (node.build == nullptr || node.probe == nullptr) return false;
  if (node.edge_ids.empty()) return false;  // cross product
  if ((node.build->rel_set & node.probe->rel_set) != 0) return false;
  if ((node.build->rel_set | node.probe->rel_set) != node.rel_set) {
    return false;
  }
  return ValidateRec(*node.build) && ValidateRec(*node.probe);
}

void SignatureRec(const PlanNode& node, const JoinGraph& graph,
                  std::string* out) {
  if (node.kind == PlanNode::Kind::kLeaf) {
    *out += graph.relation(node.relation).alias;
    return;
  }
  *out += "(";
  SignatureRec(*node.build, graph, out);
  *out += " HJ ";
  SignatureRec(*node.probe, graph, out);
  *out += ")";
}

void ToStringRec(const PlanNode& node, const Plan& plan, int indent,
                 std::string* out) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  auto filter_note = [&]() {
    std::string note;
    for (int fid : node.applied_filters) {
      const PlanFilter& f = plan.filters[static_cast<size_t>(fid)];
      note += StringFormat("  <- BV#%d%s", f.id, f.pruned ? "(pruned)" : "");
    }
    return note;
  };
  if (node.kind == PlanNode::Kind::kLeaf) {
    const RelationRef& r = plan.graph->relation(node.relation);
    *out += pad + "Scan " + r.alias;
    if (r.predicate != nullptr) *out += " [" + r.predicate->ToString() + "]";
    *out += filter_note() + "\n";
    return;
  }
  *out += pad + StringFormat("HashJoin#%d", node.id);
  if (node.created_filter >= 0) {
    *out += StringFormat("  creates BV#%d", node.created_filter);
  }
  *out += filter_note() + "\n";
  *out += pad + "  build:\n";
  ToStringRec(*node.build, plan, indent + 2, out);
  *out += pad + "  probe:\n";
  ToStringRec(*node.probe, plan, indent + 2, out);
}

void RightDeepOrderRec(const PlanNode& node, std::vector<int>* order) {
  if (node.kind == PlanNode::Kind::kLeaf) {
    order->push_back(node.relation);
    return;
  }
  RightDeepOrderRec(*node.probe, order);
  BQO_CHECK(node.build->IsLeaf());
  order->push_back(node.build->relation);
}

}  // namespace

void Plan::Renumber() {
  nodes.clear();
  int next_id = 0;
  BQO_CHECK(root != nullptr);
  RenumberRec(root.get(), &next_id, &nodes);
}

Plan Plan::Clone() const {
  Plan copy;
  copy.graph = graph;
  copy.filters = filters;
  if (root != nullptr) {
    copy.root = CloneRec(*root);
    copy.Renumber();
  }
  return copy;
}

std::unique_ptr<PlanNode> ClonePlanNode(const PlanNode& node) {
  return CloneRec(node);
}

int Plan::num_joins() const {
  int count = 0;
  for (const PlanNode* n : nodes) {
    if (n->kind == PlanNode::Kind::kJoin) ++count;
  }
  return count;
}

bool Plan::Validate() const {
  return root != nullptr && ValidateRec(*root);
}

bool Plan::IsRightDeep() const {
  const PlanNode* node = root.get();
  while (node != nullptr && node->kind == PlanNode::Kind::kJoin) {
    if (!node->build->IsLeaf()) return false;
    node = node->probe.get();
  }
  return node != nullptr;
}

std::vector<int> Plan::RightDeepOrder() const {
  BQO_CHECK(IsRightDeep());
  std::vector<int> order;
  RightDeepOrderRec(*root, &order);
  return order;
}

std::string Plan::ToString() const {
  std::string out;
  ToStringRec(*root, *this, 0, &out);
  for (const PlanFilter& f : filters) {
    std::vector<std::string> build_parts, probe_parts;
    auto name = [&](int cid) {
      const BoundColumn& c = graph->column(cid);
      return graph->relation(c.rel).alias + "." + c.column;
    };
    for (int cid : f.build_col_ids) build_parts.push_back(name(cid));
    for (int cid : f.probe_col_ids) probe_parts.push_back(name(cid));
    out += StringFormat(
        "BV#%d: built at HJ#%d from (%s), probes (%s), applied at node %d%s\n",
        f.id, f.source_join, JoinStrings(build_parts, ", ").c_str(),
        JoinStrings(probe_parts, ", ").c_str(), f.applied_at,
        f.pruned ? " [pruned]" : "");
  }
  return out;
}

std::string Plan::Signature() const {
  std::string out;
  SignatureRec(*root, *graph, &out);
  return out;
}

std::unique_ptr<PlanNode> MakeLeaf(const JoinGraph& graph, int rel) {
  BQO_CHECK(rel >= 0 && rel < graph.num_relations());
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kLeaf;
  node->relation = rel;
  node->rel_set = RelBit(rel);
  return node;
}

std::unique_ptr<PlanNode> MakeJoin(const JoinGraph& graph,
                                   std::unique_ptr<PlanNode> build,
                                   std::unique_ptr<PlanNode> probe) {
  BQO_CHECK(build != nullptr && probe != nullptr);
  if (!graph.Adjacent(build->rel_set, probe->rel_set)) return nullptr;
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kJoin;
  node->rel_set = build->rel_set | probe->rel_set;
  graph.EdgesBetweenSets(build->rel_set, probe->rel_set, &node->edge_ids);
  node->build = std::move(build);
  node->probe = std::move(probe);
  return node;
}

Plan BuildRightDeepPlan(const JoinGraph& graph,
                        const std::vector<int>& order) {
  BQO_CHECK(!order.empty());
  Plan plan;
  plan.graph = &graph;
  std::unique_ptr<PlanNode> node = MakeLeaf(graph, order[0]);
  for (size_t i = 1; i < order.size(); ++i) {
    auto joined =
        MakeJoin(graph, MakeLeaf(graph, order[i]), std::move(node));
    BQO_CHECK_MSG(joined != nullptr,
                  "BuildRightDeepPlan: order step is a cross product");
    node = std::move(joined);
  }
  plan.root = std::move(node);
  plan.Renumber();
  return plan;
}

bool IsValidRightDeepOrder(const JoinGraph& graph,
                           const std::vector<int>& order) {
  if (order.empty()) return false;
  RelSet set = RelBit(order[0]);
  for (size_t i = 1; i < order.size(); ++i) {
    if (!graph.Adjacent(set, RelBit(order[i]))) return false;
    set |= RelBit(order[i]);
  }
  return true;
}

}  // namespace bqo
