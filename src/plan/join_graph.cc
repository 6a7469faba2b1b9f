#include "src/plan/join_graph.h"

#include <algorithm>
#include <atomic>

#include "src/common/string_util.h"
#include "src/plan/predicate_shape.h"

namespace bqo {

namespace {

uint64_t NextStructureId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

int JoinGraph::AddRelation(std::string alias, std::string table_name,
                           const Table* table, ExprPtr predicate) {
  BQO_CHECK_MSG(num_relations() < 64, "queries are capped at 64 relations");
  BQO_CHECK_MSG(FindRelation(alias) < 0, "duplicate relation alias");
  RelationRef ref;
  ref.alias = std::move(alias);
  ref.table_name = std::move(table_name);
  ref.table = table;
  ref.predicate = std::move(predicate);
  if (table != nullptr) {
    ref.base_rows = static_cast<double>(table->num_rows());
    ref.filtered_rows = ref.base_rows;  // refined by AttachStatistics
  }
  relations_.push_back(std::move(ref));
  incident_.emplace_back();
  adjacent_.push_back(0);
  rel_columns_.emplace_back();
  structure_id_ = NextStructureId();
  return num_relations() - 1;
}

int JoinGraph::AddEdge(JoinEdge edge) {
  BQO_CHECK(edge.left >= 0 && edge.left < num_relations());
  BQO_CHECK(edge.right >= 0 && edge.right < num_relations());
  BQO_CHECK_NE(edge.left, edge.right);
  BQO_CHECK(!edge.left_cols.empty());
  BQO_CHECK_EQ(edge.left_cols.size(), edge.right_cols.size());
  const int id = num_edges();
  incident_[static_cast<size_t>(edge.left)].push_back(id);
  incident_[static_cast<size_t>(edge.right)].push_back(id);
  adjacent_[static_cast<size_t>(edge.left)] |= RelBit(edge.right);
  adjacent_[static_cast<size_t>(edge.right)] |= RelBit(edge.left);
  auto number = [this](int rel, const std::vector<std::string>& names) {
    std::vector<int> ids;
    ids.reserve(names.size());
    for (const std::string& name : names) {
      int cid = ColumnId(rel, name);
      if (cid < 0) {
        cid = num_columns();
        const Table* table = relations_[static_cast<size_t>(rel)].table;
        columns_.push_back(BoundColumn{
            rel, name, table != nullptr ? table->ColumnIndex(name) : -1});
        rel_columns_[static_cast<size_t>(rel)].push_back(cid);
      }
      ids.push_back(cid);
    }
    return ids;
  };
  edge.left_col_ids = number(edge.left, edge.left_cols);
  edge.right_col_ids = number(edge.right, edge.right_cols);
  edges_.push_back(std::move(edge));
  structure_id_ = NextStructureId();
  return id;
}

int JoinGraph::ColumnId(int rel, std::string_view name) const {
  for (int cid : rel_columns_[static_cast<size_t>(rel)]) {
    if (columns_[static_cast<size_t>(cid)].column == name) return cid;
  }
  return -1;
}

void JoinGraph::DeriveUniqueness(const Catalog& catalog) {
  for (auto& e : edges_) {
    const RelationRef& lr = relation(e.left);
    const RelationRef& rr = relation(e.right);
    e.left_unique = false;
    e.right_unique = false;
    for (const auto& col : e.left_cols) {
      if (catalog.IsUniqueKey(lr.table_name, col)) e.left_unique = true;
    }
    for (const auto& col : e.right_cols) {
      if (catalog.IsUniqueKey(rr.table_name, col)) e.right_unique = true;
    }
  }
}

void JoinGraph::EdgesBetweenSets(RelSet a, RelSet b,
                                 std::vector<int>* out) const {
  a &= AllRels();
  b &= AllRels();
  // Every such edge has an endpoint on the smaller side, so scanning its
  // incident edges suffices: joining a dimension to a composite touches
  // one or two edges, not all of them.
  const RelSet small = RelSetCount(a) <= RelSetCount(b) ? a : b;
  out->clear();
  ForEachRel(small, [&](int r) {
    for (int eid : incident_[static_cast<size_t>(r)]) {
      const JoinEdge& e = edges_[static_cast<size_t>(eid)];
      if ((RelSetContains(a, e.left) && RelSetContains(b, e.right)) ||
          (RelSetContains(a, e.right) && RelSetContains(b, e.left))) {
        out->push_back(eid);
      }
    }
  });
  // Ascending and once each (an edge inside `small` is seen twice).
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool JoinGraph::IsConnected(RelSet set) const {
  if (set == 0) return false;
  const int first = __builtin_ctzll(set);
  RelSet reached = RelBit(first);
  RelSet frontier = reached;
  while (frontier != 0) {
    const RelSet next = (Neighbors(reached) & set);
    if (next == 0) break;
    reached |= next;
    frontier = next;
  }
  return reached == set;
}

std::string JoinGraph::ShapeSignature() const {
  std::string sig;
  sig.reserve(64 * relations_.size() + 32 * edges_.size());
  // Relations in index order: base table + predicate shape (aliases are
  // naming, not semantics — excluded so alias-renamed queries collide).
  for (int r = 0; r < num_relations(); ++r) {
    const RelationRef& rel = relation(r);
    sig += ";R";
    AppendInt(r, &sig);
    sig += '=';
    sig += rel.table_name;
    sig += '|';
    AppendPredicateShape(rel.predicate, &sig);
  }
  // Edges: endpoints, column lists, and the uniqueness flags Definition 1
  // keys on. BuildJoinGraph emits edges in a deterministic order for a
  // given spec, so equal queries produce equal signatures.
  auto columns = [&sig](const std::vector<std::string>& names) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) sig += ',';
      sig += names[i];
    }
  };
  for (int e = 0; e < num_edges(); ++e) {
    const JoinEdge& edge = this->edge(e);
    sig += ";E";
    AppendInt(e, &sig);
    sig += '=';
    AppendInt(edge.left, &sig);
    sig += '<';
    AppendInt(edge.right, &sig);
    sig += ':';
    columns(edge.left_cols);
    sig += '=';
    columns(edge.right_cols);
    sig += ':';
    sig += edge.left_unique ? '1' : '0';
    sig += edge.right_unique ? '1' : '0';
  }
  return sig;
}

std::vector<std::vector<Value>> JoinGraph::ConstantTable() const {
  std::vector<std::vector<Value>> table;
  table.reserve(relations_.size());
  for (const RelationRef& rel : relations_) {
    table.push_back(CollectPredicateConstants(rel.predicate));
  }
  return table;
}

int JoinGraph::FindRelation(std::string_view alias) const {
  for (int i = 0; i < num_relations(); ++i) {
    if (relations_[static_cast<size_t>(i)].alias == alias) return i;
  }
  return -1;
}

std::string JoinGraph::ToString() const {
  std::string out = "JoinGraph{\n";
  for (int i = 0; i < num_relations(); ++i) {
    const RelationRef& r = relation(i);
    out += StringFormat("  [%d] %s (%s), |R|=%.0f, |sigma(R)|=%.0f", i,
                        r.alias.c_str(), r.table_name.c_str(), r.base_rows,
                        r.filtered_rows);
    if (r.predicate != nullptr) out += "  WHERE " + r.predicate->ToString();
    out += "\n";
  }
  for (const auto& e : edges_) {
    out += StringFormat(
        "  %s.%s %s=%s %s.%s\n", relation(e.left).alias.c_str(),
        JoinStrings(e.left_cols, ",").c_str(), e.left_unique ? "<K" : "",
        e.right_unique ? "K>" : "", relation(e.right).alias.c_str(),
        JoinStrings(e.right_cols, ",").c_str());
  }
  out += "}";
  return out;
}

}  // namespace bqo
