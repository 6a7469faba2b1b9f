#include "src/workload/query.h"

#include <map>

#include "src/common/string_util.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

Result<JoinGraph> BuildJoinGraph(const Catalog& catalog,
                                 const QuerySpec& spec,
                                 bool attach_statistics) {
  JoinGraph graph;
  for (const QueryRelation& qr : spec.relations) {
    auto table = catalog.GetTable(qr.table);
    BQO_RETURN_NOT_OK(table.status());
    BQO_RETURN_NOT_OK(ValidatePredicate(*table.value(), qr.predicate));
    graph.AddRelation(qr.alias, qr.table, table.value(), qr.predicate);
  }

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
