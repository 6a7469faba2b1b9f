// Statistics-based implementation of the Cout model (Section 3.3).
//
// This is the cardinality oracle the optimizers plan with. It walks the
// annotated plan in execution order (build sides before probe sides, so the
// contents of every bitvector filter are estimated before the subtree it
// filters), estimating:
//  * base cardinalities after local predicates (exact, see AttachStatistics),
//  * join cardinalities via the classic distinct-value containment formula
//      |B JOIN P| = |B| * |P| / max(d_B(k), d_P(k)),
//  * semi-join (bitvector) retention rho = d_source(k) / d_target(k) with
//    per-column distinct counts propagated through joins and filters
//    (so a join after a fully reducing filter is not double-counted),
//  * optional false-positive leakage: retention' = rho + (1 - rho) * fp.
//
// Layout. The optimizers cost hundreds of candidate plans per query, so
// the per-subtree state is flat: one row of a (plan nodes x K) matrix of
// doubles, K = the graph's join-column count (JoinGraph::column ids), kept
// by the model and reused across Compute calls. Each leaf seeds the row of
// its own node id; a join takes over its probe child's row and copies in
// only the build side's columns (nothing reads the probe row after the
// merge), so no row is copied whole. Edges and filters carry column ids,
// so the per-node path touches no string, map, lock, or allocation once
// the matrix has grown to the largest plan seen.
//
// Presence rule. A subtree's row holds a distinct count for column c iff
// c's relation is in the subtree's rel_set; other entries are stale and
// never read. (A leaf seeds every join column of its relation; a join
// inherits its children's columns.) A lookup of an absent column falls
// back to the node cardinality.
//
// Base distinct counts. The raw per-column count is read once per graph
// structure (JoinGraph::structure_id) through the StatsCatalog, which reads
// through to Column::CountDistinct's memo, and is kept by column id for the
// model's lifetime. A leaf's seed — the raw count Yao-reduced under the
// local predicate and capped by the leaf's cardinality — depends only on
// that count and the relation's (base_rows, filtered_rows), so it is
// memoized per relation under that key: the candidates of one query share
// it, and a graph copy whose selectivities moved (a plan-cache
// verification's rebound graph) recomputes it. The filter-blind DP
// (src/optimizer/dp_optimizer.h) reads the same seeds through
// LeafKeyDistinct, so both optimizers plan with one estimator.
//
// Bit parity. Every estimate is bit-identical to the original map-based
// evaluation: the same operations run in the same order (per-edge column
// minima applied sequentially in edge order, the cardinality cap after the
// merge and after each filter). tests/test_estimated_cost.cc keeps that
// evaluation as an oracle and pins exact CoutBreakdown equality.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/plan/cout.h"
#include "src/stats/table_stats.h"

namespace bqo {

/// \brief Compute filtered_rows for every relation of `graph` by evaluating
/// local predicates against the base tables (exact single-table
/// cardinalities; see the module comment in table_stats.h). Each
/// evaluation's selection stays on the relation (RelationRef::selection)
/// for its scan, so a query evaluates each predicate once.
void AttachStatistics(JoinGraph* graph);

/// \brief AttachStatistics for a single relation — what a plan-shape cache
/// hit re-estimates: only the relations whose constant slots moved, instead
/// of re-evaluating every predicate of the query (src/server/plan_cache.h).
void AttachRelationStatistics(JoinGraph* graph, int rel);

/// Not thread-safe: Compute reuses per-model scratch, so each thread
/// costs with its own model (models are cheap; the optimizer makes one per
/// OptimizeQuery).
class EstimatedCoutModel : public CoutModel {
 public:
  /// \param stats     statistics provider (not owned)
  /// \param fp_rate   assumed false-positive rate of bitvector filters
  ///                  (0 models the paper's "no false positives" analysis)
  explicit EstimatedCoutModel(StatsCatalog* stats, double fp_rate = 0.0)
      : stats_(stats), fp_rate_(fp_rate) {}

  CoutBreakdown Compute(const Plan& plan) override;

  /// \brief Distinct count of the key `col_ids` (join column ids of
  /// relation `rel`) at `rel`'s leaf: the product of the leaf's seeds,
  /// capped by its filtered cardinality — what Compute uses for an edge
  /// side that is a leaf.
  double LeafKeyDistinct(const JoinGraph& graph, int rel,
                         const std::vector<int>& col_ids);

 private:
  /// A subtree's estimate: its output cardinality and the matrix row that
  /// holds its distinct counts.
  struct SubtreeEstimate {
    double card;
    double* row;
  };

  /// Evaluates `node`'s subtree (see the layout note above).
  SubtreeEstimate EvalNode(const Plan& plan, const PlanNode& node,
                           CoutBreakdown* out);

  /// Resolve the raw distinct counts of `graph`'s structure (a no-op
  /// while it matches the memoized one).
  void ResolveStructure(const JoinGraph& graph);

  /// The leaf seeds by column id, current for relation `rel` (computed on
  /// first use under its (base_rows, filtered_rows)).
  const double* LeafSeeds(const JoinGraph& graph, int rel);

  /// Apply `node`'s filters to its cardinality and row.
  void ApplyFilters(const Plan& plan, const PlanNode& node, double* card,
                    double* row, CoutBreakdown* out);

  /// Base distinct count of join column `cid` of relation `rel`: the
  /// memoized raw count, Yao-reduced under the local predicate.
  double BaseDistinct(const RelationRef& rel, int cid) const;

  double* Row(int node_id) {
    return dist_.data() + static_cast<size_t>(node_id) * num_cols_;
  }

  const StatsCatalog* stats_;
  double fp_rate_;

  // Raw distinct counts of the graph structure `memo_structure_`.
  uint64_t memo_structure_ = 0;
  std::vector<double> raw_distinct_;  ///< by column id; <= 0 = unknown
  /// Leaf seeds by column id, valid for relation r while its
  /// (base_rows, filtered_rows) equal seed_key_[r].
  std::vector<double> seed_;
  std::vector<std::pair<double, double>> seed_key_;  ///< by relation

  // Per-Compute scratch, reused across calls.
  size_t num_cols_ = 0;
  std::vector<double> dist_;  ///< nodes x num_cols_ distinct counts
  /// By filter id: composite key distinct of the filter's source.
  std::vector<double> filter_key_distinct_;
};

}  // namespace bqo
