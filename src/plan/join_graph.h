// Join graph: the logical input to join-order optimization.
//
// A query is a set of relations (base tables with optional local predicates,
// identified by alias so the same table may appear several times, as in JOB)
// connected by equi-join edges. Edges carry uniqueness metadata: an edge
// where the join columns form a key of the right side is the paper's
// "R_left -> R_right" (a PKFK join when the key is a primary key,
// Definition 1).
//
// Relations are indexed 0..n-1; subsets are uint64_t bitmasks (queries are
// capped at 64 relations; the CUSTOMER-like generator stays below this).
//
// Every (relation, join column) pair that some edge joins on gets a dense
// *join-column id* 0..K-1, assigned once in AddEdge in order of first
// appearance, and each edge stores the ids of its column pairs. The
// numbering is structural: it depends only on the AddEdge sequence, so
// graph copies and shape-equal graphs (same ShapeSignature) number their
// columns identically. The cost model indexes flat per-node arrays by it
// (src/stats/estimated_cost.h). AddEdge also resolves each join column's
// index in its relation's table, once, so execution compiles against
// integers (BoundColumn::index) instead of looking names up per join.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/storage/catalog.h"

namespace bqo {

/// \brief Set of relation indices as a bitmask.
using RelSet = uint64_t;

inline RelSet RelBit(int rel) { return RelSet{1} << rel; }
inline bool RelSetContains(RelSet set, int rel) {
  return (set & RelBit(rel)) != 0;
}
inline int RelSetCount(RelSet set) { return __builtin_popcountll(set); }

/// \brief Call `fn(rel)` for every relation in `set`, ascending.
template <typename Fn>
inline void ForEachRel(RelSet set, Fn&& fn) {
  for (; set != 0; set &= set - 1) fn(__builtin_ctzll(set));
}

/// \brief A relation occurrence in a query.
struct RelationRef {
  std::string alias;       ///< unique within the query
  std::string table_name;  ///< base table in the catalog
  const Table* table = nullptr;
  ExprPtr predicate;       ///< local filter; null/kTrue selects all rows

  // Filled by the statistics layer (AttachStatistics):
  double base_rows = 0;      ///< |table|
  double filtered_rows = 0;  ///< |sigma_predicate(table)|
  /// The rows `predicate` selects, evaluated once by AttachStatistics and
  /// handed to the relation's scan (filtered_rows is its CountOnes()).
  /// Null when the predicate selects every row (the scan then walks all
  /// rows) or statistics were never attached (such a graph cannot be
  /// compiled unless every predicate selects all rows). Shared, immutable: graph copies (plan-cache entries and
  /// their rebound instances) share it until a rebind re-evaluates.
  std::shared_ptr<const SelectionBits> selection;
};

/// \brief An equi-join edge between two relations. `left_cols[i]` joins
/// `right_cols[i]`. `right_unique` means the join columns form a unique key
/// of the right side, i.e. left -> right in the paper's notation.
struct JoinEdge {
  int left = -1;
  int right = -1;
  std::vector<std::string> left_cols;
  std::vector<std::string> right_cols;
  bool left_unique = false;
  bool right_unique = false;
  /// Join-column ids of left_cols/right_cols (index-aligned); assigned by
  /// JoinGraph::AddEdge, whatever the caller put here is overwritten.
  std::vector<int> left_col_ids;
  std::vector<int> right_col_ids;

  bool Touches(int rel) const { return left == rel || right == rel; }
};

/// \brief A base-table column of one relation occurrence, as integers:
/// the relation index and the column's index in that relation's table.
/// Execution schemas sort and match on these (src/exec/batch.h).
struct ColumnRef {
  int rel = -1;
  int col = -1;

  bool operator==(const ColumnRef& o) const {
    return rel == o.rel && col == o.col;
  }
  bool operator<(const ColumnRef& o) const {
    return rel != o.rel ? rel < o.rel : col < o.col;
  }
};

/// \brief A column bound to a specific relation occurrence of the query.
struct BoundColumn {
  int rel = -1;
  std::string column;
  /// Index of `column` in the relation's table, resolved at bind
  /// (JoinGraph::AddEdge for join columns); -1 when unresolved or the
  /// relation has no table.
  int index = -1;

  /// The integer form execution compiles against; needs a resolved index.
  ColumnRef ref() const { return ColumnRef{rel, index}; }

  bool operator==(const BoundColumn& o) const {
    return rel == o.rel && column == o.column;
  }
};

/// \brief The join graph of one query.
class JoinGraph {
 public:
  /// \brief Add a relation; returns its index. `table` may be null for
  /// purely analytical graphs (Cout analysis with synthetic cardinalities).
  int AddRelation(std::string alias, std::string table_name,
                  const Table* table, ExprPtr predicate);

  /// \brief Add an equi-join edge; uniqueness flags may be set directly or
  /// derived from a catalog via DeriveUniqueness(). Numbers the edge's
  /// columns (see the module comment).
  int AddEdge(JoinEdge edge);

  /// \brief Set left_unique/right_unique on every edge from catalog key
  /// metadata (a side is unique if any of its join columns is a declared
  /// unique key of its base table).
  void DeriveUniqueness(const Catalog& catalog);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const RelationRef& relation(int idx) const {
    return relations_[static_cast<size_t>(idx)];
  }
  RelationRef& relation(int idx) { return relations_[static_cast<size_t>(idx)]; }
  const JoinEdge& edge(int idx) const { return edges_[static_cast<size_t>(idx)]; }
  const std::vector<JoinEdge>& edges() const { return edges_; }

  /// \brief Edge ids incident to `rel`.
  const std::vector<int>& IncidentEdges(int rel) const {
    return incident_[static_cast<size_t>(rel)];
  }

  /// \brief Replace `*out` with the edge ids that have one endpoint in `a`
  /// and the other in `b`, ascending. Callers that build many joins pass
  /// the same vector, so its storage is reused.
  void EdgesBetweenSets(RelSet a, RelSet b, std::vector<int>* out) const;

  /// \brief True iff some edge has one endpoint in `a` and the other in
  /// `b` (EdgesBetweenSets would be non-empty), without building the list.
  bool Adjacent(RelSet a, RelSet b) const { return (Reach(a) & b) != 0; }

  /// \brief Relations adjacent to any member of `set`, excluding `set`.
  RelSet Neighbors(RelSet set) const { return Reach(set) & ~set; }

  /// \brief Number of join columns (ids are 0..num_columns()-1).
  int num_columns() const { return static_cast<int>(columns_.size()); }
  /// \brief The join column with id `id`.
  const BoundColumn& column(int id) const {
    return columns_[static_cast<size_t>(id)];
  }
  /// \brief Join-column ids of relation `rel`, ascending.
  const std::vector<int>& RelationColumns(int rel) const {
    return rel_columns_[static_cast<size_t>(rel)];
  }
  /// \brief Id of `rel`'s join column `name`, or -1 if no edge joins on it.
  int ColumnId(int rel, std::string_view name) const;

  /// \brief Process-unique id of this graph's relation/column structure:
  /// fresh after every AddRelation/AddEdge, shared by copies (whose
  /// columns number identically). Lets per-structure memos (the cost
  /// model's base distinct counts) tell graphs apart without comparing
  /// names.
  uint64_t structure_id() const { return structure_id_; }

  /// \brief True if the relations in `set` form a connected subgraph.
  bool IsConnected(RelSet set) const;

  /// \brief Bitmask of all relations.
  RelSet AllRels() const {
    return num_relations() == 64 ? ~RelSet{0}
                                 : (RelSet{1} << num_relations()) - 1;
  }

  /// \brief Index of the relation with this alias, or -1.
  int FindRelation(std::string_view alias) const;

  /// \brief Canonical *shape* signature: relations in index order as
  /// `table|predicate-shape` (literal constants replaced by typed `?`
  /// slots, src/plan/predicate_shape.h) plus every edge's endpoints,
  /// column lists, and uniqueness flags. Two queries that differ only in
  /// bound constants — or in aliases, which are naming, not semantics —
  /// share a shape signature; the serving layer's plan cache keys on it.
  std::string ShapeSignature() const;

  /// \brief Per-relation bound-constant slot tables, index-aligned with
  /// the relations (CollectPredicateConstants of each local predicate).
  /// Together with ShapeSignature this is a lossless split of the query's
  /// predicates into structure and constants.
  std::vector<std::vector<Value>> ConstantTable() const;

  std::string ToString() const;

 private:
  /// Relations adjacent to any member of `set` (members included when
  /// they neighbour each other).
  RelSet Reach(RelSet set) const {
    RelSet out = 0;
    ForEachRel(set & AllRels(),
               [&](int r) { out |= adjacent_[static_cast<size_t>(r)]; });
    return out;
  }

  std::vector<RelationRef> relations_;
  std::vector<JoinEdge> edges_;
  std::vector<std::vector<int>> incident_;
  std::vector<RelSet> adjacent_;  ///< per relation: its neighbours
  std::vector<BoundColumn> columns_;  ///< by join-column id
  std::vector<std::vector<int>> rel_columns_;
  uint64_t structure_id_ = 0;
};

}  // namespace bqo
