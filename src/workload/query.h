// Query specifications: the programmatic stand-in for SQL.
//
// A QuerySpec names relation occurrences (alias + base table + local
// predicate), equi-join conditions, and a final aggregate. BuildJoinGraph
// lowers it to the optimizer's JoinGraph, merging multiple join conditions
// between the same relation pair into one multi-column edge and deriving
// key/uniqueness metadata from the catalog.
#pragma once

#include <string>
#include <vector>

#include "src/exec/aggregate.h"
#include "src/plan/join_graph.h"

namespace bqo {

struct QueryRelation {
  std::string alias;
  std::string table;
  ExprPtr predicate;  ///< may be null (no local filter)
};

struct QueryJoinCondition {
  std::string left_alias;
  std::string left_column;
  std::string right_alias;
  std::string right_column;
};

struct QuerySpec {
  std::string name;
  std::vector<QueryRelation> relations;
  std::vector<QueryJoinCondition> joins;
  AggSpec agg;  ///< COUNT(*) by default

  int num_joins() const { return static_cast<int>(joins.size()); }
};

/// \brief Lower `spec` to a JoinGraph bound against `catalog`; derives edge
/// uniqueness from declared keys and computes exact filtered cardinalities.
/// An unknown table or alias, a duplicate alias, a join condition naming a
/// column its table lacks (or a double column), or a predicate that fails
/// ValidatePredicate against its table (src/expr/expr.h), is an error
/// status — the serving layer fails that query alone.
/// `attach_statistics = false` skips the cardinality pass (predicate
/// evaluation over every base table) — the serving layer binds graphs
/// without it, because a plan-shape cache hit re-estimates only the
/// relations whose constants moved (src/server/plan_cache.h) and a miss
/// attaches the full statistics before optimizing.
Result<JoinGraph> BuildJoinGraph(const Catalog& catalog,
                                 const QuerySpec& spec,
                                 bool attach_statistics = true);

}  // namespace bqo
