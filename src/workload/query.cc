#include "src/workload/query.h"

#include <map>

#include "src/common/string_util.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

Result<JoinGraph> BuildJoinGraph(const Catalog& catalog,
                                 const QuerySpec& spec,
                                 bool attach_statistics) {
  if (spec.relations.size() > 64) {
    return Status::InvalidArgument("queries are capped at 64 relations");
  }
  JoinGraph graph;
  for (const QueryRelation& qr : spec.relations) {
    auto table = catalog.GetTable(qr.table);
    BQO_RETURN_NOT_OK(table.status());
    BQO_RETURN_NOT_OK(ValidatePredicate(*table.value(), qr.predicate));
    if (graph.FindRelation(qr.alias) >= 0) {
      return Status::InvalidArgument(
          StringFormat("duplicate relation alias '%s'", qr.alias.c_str()));
    }
    graph.AddRelation(qr.alias, qr.table, table.value(), qr.predicate);
  }
  // A join column must exist in its table and travel through the int64-only
  // execution batches (src/exec/batch.h): no double columns.
  auto validate_column = [&graph](int rel, const std::string& column) {
    const Table& table = *graph.relation(rel).table;
    const int idx = table.ColumnIndex(column);
    if (idx < 0 || table.column(idx).type() == DataType::kDouble) {
      return Status::InvalidArgument(StringFormat(
          "join column '%s.%s': table '%s' has no integer or string column "
          "of that name",
          graph.relation(rel).alias.c_str(), column.c_str(),
          table.name().c_str()));
    }
    return Status::OK();
  };

  // Merge all conditions between the same alias pair into one edge.
  std::map<std::pair<int, int>, JoinEdge> merged;
  for (const QueryJoinCondition& jc : spec.joins) {
    int l = graph.FindRelation(jc.left_alias);
    int r = graph.FindRelation(jc.right_alias);
    if (l < 0 || r < 0) {
      return Status::InvalidArgument(
          StringFormat("join references unknown alias '%s' or '%s'",
                       jc.left_alias.c_str(), jc.right_alias.c_str()));
    }
    if (l == r) {
      return Status::InvalidArgument(StringFormat(
          "join condition relates alias '%s' to itself",
          jc.left_alias.c_str()));
    }
    BQO_RETURN_NOT_OK(validate_column(l, jc.left_column));
    BQO_RETURN_NOT_OK(validate_column(r, jc.right_column));
    std::string lcol = jc.left_column;
    std::string rcol = jc.right_column;
    if (l > r) {
      std::swap(l, r);
      std::swap(lcol, rcol);
    }
    auto [it, inserted] = merged.try_emplace({l, r});
    JoinEdge& e = it->second;
    if (inserted) {
      e.left = l;
      e.right = r;
    }
    e.left_cols.push_back(std::move(lcol));
    e.right_cols.push_back(std::move(rcol));
  }
  for (auto& [_, e] : merged) graph.AddEdge(std::move(e));

  graph.DeriveUniqueness(catalog);
  if (attach_statistics) AttachStatistics(&graph);
  return graph;
}

}  // namespace bqo
