#include "src/stats/estimated_cost.h"

#include <algorithm>
#include <cmath>

namespace bqo {

namespace {

/// A distinct count capped by the node cardinality.
inline double Cap(double d, double card) {
  return std::max(1.0, std::min(d, std::max(card, 1.0)));
}

}  // namespace

void AttachStatistics(JoinGraph* graph) {
  for (int r = 0; r < graph->num_relations(); ++r) {
    AttachRelationStatistics(graph, r);
  }
}

void AttachRelationStatistics(JoinGraph* graph, int rel) {
  RelationRef& ref = graph->relation(rel);
  BQO_CHECK_MSG(ref.table != nullptr,
                "AttachStatistics requires bound tables");
  ref.base_rows = static_cast<double>(ref.table->num_rows());
  if (SelectsAllRows(ref.predicate)) {
    ref.selection = nullptr;
    ref.filtered_rows = ref.base_rows;
    return;
  }
  auto selection = std::make_shared<const SelectionBits>(
      EvaluateSelection(*ref.table, ref.predicate));
  ref.filtered_rows = static_cast<double>(selection->CountOnes());
  ref.selection = std::move(selection);
}

double EstimatedCoutModel::BaseDistinct(const RelationRef& rel,
                                        int cid) const {
  double d = raw_distinct_[static_cast<size_t>(cid)];
  if (d <= 0) d = rel.base_rows;
  if (d <= 0) return 1.0;
  // Yao's formula: selecting `filtered` of `base` rows from a column with d
  // distinct values (base/d rows per value) keeps
  //   d * (1 - (1 - sel)^(base/d))
  // distinct values. Degenerates to d*sel for key columns and to ~d for
  // heavily repeated FK columns — Cardenas' with-replacement formula would
  // wrongly shrink unfiltered keys.
  const double base = std::max(rel.base_rows, 1.0);
  const double sel = std::min(1.0, rel.filtered_rows / base);
  const double rows_per_value = base / d;
  const double reduced = d * (1.0 - std::pow(1.0 - sel, rows_per_value));
  return std::max(1.0,
                  std::min({d, reduced, std::max(rel.filtered_rows, 1.0)}));
}

namespace {

/// Composite-key distinct of columns `ids` at a node with cardinality
/// `card`, row `row` and relation set `rels`: the product of per-column
/// distincts (absent columns count as `card`) capped by the cardinality.
double CompositeDistinct(const JoinGraph& graph, const double* row,
                         double card, RelSet rels,
                         const std::vector<int>& ids) {
  double d = 1.0;
  for (int cid : ids) {
    d *= RelSetContains(rels, graph.column(cid).rel)
             ? row[cid]
             : std::max(card, 1.0);
  }
  return Cap(d, card);
}

/// Cap every present distinct of a node by its cardinality.
void CapRow(const JoinGraph& graph, RelSet rels, double card, double* row) {
  ForEachRel(rels, [&](int r) {
    for (int cid : graph.RelationColumns(r)) row[cid] = Cap(row[cid], card);
  });
}

}  // namespace

void EstimatedCoutModel::ApplyFilters(const Plan& plan, const PlanNode& node,
                                      double* card, double* row,
                                      CoutBreakdown* out) {
  const JoinGraph& graph = *plan.graph;
  for (int fid : node.applied_filters) {
    const PlanFilter& f = plan.filters[static_cast<size_t>(fid)];
    if (f.pruned) continue;
    const double key_distinct =
        filter_key_distinct_[static_cast<size_t>(fid)];
    BQO_CHECK_MSG(key_distinct > 0,
                  "filter source estimated after its application site");
    const double target_d =
        CompositeDistinct(graph, row, *card, node.rel_set, f.probe_col_ids);
    const double rho = std::min(1.0, key_distinct / target_d);
    const double rho_eff = rho + (1.0 - rho) * fp_rate_;
    out->filter_lambda[static_cast<size_t>(fid)] = 1.0 - rho_eff;
    *card *= rho_eff;
    for (int cid : f.probe_col_ids) {
      if (RelSetContains(node.rel_set, graph.column(cid).rel)) {
        row[cid] = std::max(1.0, std::min(row[cid], key_distinct));
      }
    }
    // Every distinct count is capped by the (reduced) cardinality.
    CapRow(graph, node.rel_set, *card, row);
  }
}

void EstimatedCoutModel::ResolveStructure(const JoinGraph& graph) {
  if (graph.structure_id() == memo_structure_) return;
  memo_structure_ = graph.structure_id();
  raw_distinct_.assign(static_cast<size_t>(graph.num_columns()), 0.0);
  for (int r = 0; r < graph.num_relations(); ++r) {
    for (int cid : graph.RelationColumns(r)) {
      raw_distinct_[static_cast<size_t>(cid)] = stats_->Distinct(
          graph.relation(r).table_name, graph.column(cid).column);
    }
  }
  seed_.assign(static_cast<size_t>(graph.num_columns()), 0.0);
  // NaN keys match no relation, so every seed is computed on first use.
  seed_key_.assign(static_cast<size_t>(graph.num_relations()),
                   {std::nan(""), std::nan("")});
}

const double* EstimatedCoutModel::LeafSeeds(const JoinGraph& graph,
                                            int rel_idx) {
  const RelationRef& rel = graph.relation(rel_idx);
  std::pair<double, double>& key = seed_key_[static_cast<size_t>(rel_idx)];
  if (key.first != rel.base_rows || key.second != rel.filtered_rows) {
    key = {rel.base_rows, rel.filtered_rows};
    for (int cid : graph.RelationColumns(rel_idx)) {
      seed_[static_cast<size_t>(cid)] =
          Cap(BaseDistinct(rel, cid), rel.filtered_rows);
    }
  }
  return seed_.data();
}

double EstimatedCoutModel::LeafKeyDistinct(const JoinGraph& graph, int rel,
                                           const std::vector<int>& col_ids) {
  ResolveStructure(graph);
  return CompositeDistinct(graph, LeafSeeds(graph, rel),
                           graph.relation(rel).filtered_rows, RelBit(rel),
                           col_ids);
}

EstimatedCoutModel::SubtreeEstimate EstimatedCoutModel::EvalNode(
    const Plan& plan, const PlanNode& node, CoutBreakdown* out) {
  const JoinGraph& graph = *plan.graph;
  double* row;
  double card;
  if (node.kind == PlanNode::Kind::kLeaf) {
    row = Row(node.id);
    card = graph.relation(node.relation).filtered_rows;
    const double* seed = LeafSeeds(graph, node.relation);
    for (int cid : graph.RelationColumns(node.relation)) row[cid] = seed[cid];
  } else {
    // Execution order: build first, then register the created filter's
    // source estimate, then the probe subtree (which may apply that
    // filter).
    const PlanNode& build = *node.build;
    const PlanNode& probe = *node.probe;
    const SubtreeEstimate b = EvalNode(plan, build, out);
    if (node.created_filter >= 0) {
      const PlanFilter& f =
          plan.filters[static_cast<size_t>(node.created_filter)];
      filter_key_distinct_[static_cast<size_t>(node.created_filter)] =
          CompositeDistinct(graph, b.row, b.card, build.rel_set,
                            f.build_col_ids);
    }
    const SubtreeEstimate p = EvalNode(plan, probe, out);

    // Classic containment formula per applied edge.
    card = b.card * p.card;
    for (int eid : node.edge_ids) {
      const JoinEdge& e = graph.edge(eid);
      const bool left_in_build = RelSetContains(build.rel_set, e.left);
      const std::vector<int>& b_ids =
          left_in_build ? e.left_col_ids : e.right_col_ids;
      const std::vector<int>& p_ids =
          left_in_build ? e.right_col_ids : e.left_col_ids;
      const double d_b =
          CompositeDistinct(graph, b.row, b.card, build.rel_set, b_ids);
      const double d_p =
          CompositeDistinct(graph, p.row, p.card, probe.rel_set, p_ids);
      card /= std::max(d_b, d_p);
    }

    // Merge the children's distincts (their relation sets are disjoint)
    // into the probe child's row; join columns take the min of the two
    // sides.
    row = p.row;
    ForEachRel(build.rel_set, [&](int r) {
      for (int cid : graph.RelationColumns(r)) row[cid] = b.row[cid];
    });
    for (int eid : node.edge_ids) {
      const JoinEdge& e = graph.edge(eid);
      if (!RelSetContains(node.rel_set, e.left) ||
          !RelSetContains(node.rel_set, e.right)) {
        continue;
      }
      for (size_t i = 0; i < e.left_col_ids.size(); ++i) {
        double& l = row[e.left_col_ids[i]];
        double& r = row[e.right_col_ids[i]];
        const double m = std::min(l, r);
        l = m;
        r = m;
      }
    }
    CapRow(graph, node.rel_set, card, row);
  }

  out->node_prefilter[static_cast<size_t>(node.id)] = card;
  ApplyFilters(plan, node, &card, row, out);
  out->node_output[static_cast<size_t>(node.id)] = card;
  out->total += card;
  return SubtreeEstimate{card, row};
}

CoutBreakdown EstimatedCoutModel::Compute(const Plan& plan) {
  BQO_CHECK(plan.root != nullptr && !plan.nodes.empty());
  const JoinGraph& graph = *plan.graph;
  ResolveStructure(graph);
  num_cols_ = static_cast<size_t>(graph.num_columns());
  if (dist_.size() < plan.nodes.size() * num_cols_) {
    dist_.resize(plan.nodes.size() * num_cols_);
  }
  filter_key_distinct_.assign(plan.filters.size(), 0.0);

  CoutBreakdown out;
  out.node_output.assign(plan.nodes.size(), 0.0);
  out.node_prefilter.assign(plan.nodes.size(), 0.0);
  out.filter_lambda.assign(plan.filters.size(), 0.0);
  EvalNode(plan, *plan.root, &out);
  return out;
}

}  // namespace bqo
