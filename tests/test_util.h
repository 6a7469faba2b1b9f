// Shared fixtures: tiny synthetic star / chain / snowflake databases whose
// exact cardinalities the theorem-validation tests can afford to enumerate,
// hand-filled int64 tables (AddTable / AddRow), and ReferenceJoin, the
// engine-independent answer (COUNT, SUM and GROUP BY, with the result
// checksum) the executor tests pin hash-join results to.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/expr/expr.h"
#include "src/workload/datagen.h"
#include "src/workload/query.h"

namespace bqo::testing {

struct TestDb {
  Catalog catalog;
  QuerySpec spec;

  Result<JoinGraph> Graph() const { return BuildJoinGraph(catalog, spec); }
};

/// \brief Add an all-int64 table named `name` to `db`'s catalog.
inline Table* AddTable(TestDb* db, const std::string& name,
                       const std::vector<std::string>& columns) {
  std::vector<FieldDef> fields;
  for (const std::string& c : columns) {
    fields.push_back({c, DataType::kInt64});
  }
  return db->catalog.CreateTable(name, fields).ValueOrDie();
}

/// \brief Append one row of int64 values to `table`.
inline void AddRow(Table* table, const std::vector<int64_t>& values) {
  std::vector<Value> row;
  for (int64_t v : values) row.push_back(Value(v));
  BQO_CHECK(table->AppendRow(row).ok());
}

/// \brief Row-at-a-time reference semantics of `expr` on row `row` of
/// `table`, independent of the engine's evaluator: it reads values through
/// Column's accessors (strings as strings, not dictionary codes), probes IN
/// lists linearly and LIKE with std::string::find. Null and kTrue pass
/// every row. `expr` must be well-formed (ValidatePredicate).
inline bool NaiveRowPasses(const Table& table, const Expr* expr, int64_t row) {
  if (expr == nullptr) return true;
  const auto column = [&]() -> const Column& {
    return *table.GetColumn(expr->column).value();
  };
  switch (expr->kind) {
    case ExprKind::kTrue:
      return true;
    case ExprKind::kCompare: {
      const Column& col = column();
      if (col.type() == DataType::kString) {
        const bool eq = col.GetStringAt(row) == expr->literal.AsString();
        return expr->op == CompareOp::kEq ? eq : !eq;
      }
      const auto compare = [&](auto x, auto v) {
        switch (expr->op) {
          case CompareOp::kEq: return x == v;
          case CompareOp::kNe: return x != v;
          case CompareOp::kLt: return x < v;
          case CompareOp::kLe: return x <= v;
          case CompareOp::kGt: return x > v;
          case CompareOp::kGe: return x >= v;
        }
        return false;
      };
      return col.type() == DataType::kDouble
                 ? compare(col.GetDouble(row), expr->literal.AsDouble())
                 : compare(col.GetInt64(row), expr->literal.AsInt64());
    }
    case ExprKind::kBetween: {
      const int64_t x = column().GetInt64(row);
      return expr->lo <= x && x <= expr->hi;
    }
    case ExprKind::kInList: {
      const int64_t x = column().GetInt64(row);
      for (int64_t v : expr->in_values) {
        if (v == x) return true;
      }
      return false;
    }
    case ExprKind::kStringContains:
      return column().GetStringAt(row).find(expr->needle) !=
             std::string::npos;
    case ExprKind::kModLess:
      return column().GetInt64(row) % expr->mod_divisor < expr->mod_bound;
    case ExprKind::kAnd:
      for (const ExprPtr& c : expr->children) {
        if (!NaiveRowPasses(table, c.get(), row)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : expr->children) {
        if (NaiveRowPasses(table, c.get(), row)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !NaiveRowPasses(table, expr->children[0].get(), row);
  }
  return false;
}

/// \brief NaiveRowPasses over every row: one byte per row, 1 = selected.
inline std::vector<uint8_t> NaiveSelection(const Table& table,
                                           const ExprPtr& expr) {
  std::vector<uint8_t> out(static_cast<size_t>(table.num_rows()));
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    out[static_cast<size_t>(row)] = NaiveRowPasses(table, expr.get(), row);
  }
  return out;
}

/// \brief A query's join, aggregated. `count` and `sum` are COUNT(*) and
/// SUM(measure of relation 0); the rest is the query's own aggregate
/// (QuerySpec::agg).
struct ReferenceResult {
  int64_t count = 0;
  int64_t sum = 0;
  /// The spec's total: COUNT(*) or SUM of its column, over all groups.
  int64_t total = 0;
  /// Value per group key; empty without GROUP BY.
  std::map<int64_t, int64_t> groups;
  /// The result checksum as AggregateOperator::ResultChecksum defines it:
  /// the sum over groups of Mix64(HashCombine(HashValue(key), value)), or
  /// HashValue(total) without GROUP BY.
  uint64_t checksum = 0;
};

/// \brief Brute-force answer of `db.spec`, independent of the engine: no
/// operator, filter, optimizer or SIMD code. Relations join in spec order
/// over row-id tuples. Each relation's passing rows (NaiveSelection of its
/// predicate) go into one std::unordered_multimap keyed on the column of
/// its first join condition with the relations already joined; further
/// conditions between them are checked by value. Every relation after the
/// first must join an earlier one (no cross products), and relation 0 must
/// have a `measure` column. The columns of the spec's AggSpec name spec
/// relations by index (BoundColumn::rel); values add in uint64_t, wrapping
/// modulo 2^64 as the engine's fold does.
inline ReferenceResult ReferenceJoin(const TestDb& db) {
  const std::vector<QueryRelation>& rels = db.spec.relations;
  const AggSpec& agg = db.spec.agg;
  BQO_CHECK(!rels.empty());
  std::vector<const Table*> tables;
  for (const QueryRelation& rel : rels) {
    tables.push_back(db.catalog.GetTable(rel.table).value());
  }
  const auto index_of = [&rels](const std::string& alias) {
    size_t i = 0;
    while (i < rels.size() && rels[i].alias != alias) ++i;
    BQO_CHECK_MSG(i < rels.size(), "join names an unknown alias");
    return i;
  };

  // Row-major tuples of row ids, one column per relation joined so far.
  std::vector<int64_t> tuples;
  const std::vector<uint8_t> first =
      NaiveSelection(*tables[0], rels[0].predicate);
  for (size_t row = 0; row < first.size(); ++row) {
    if (first[row]) tuples.push_back(static_cast<int64_t>(row));
  }
  for (size_t next = 1; next < rels.size(); ++next) {
    // Conditions between `next` and an earlier relation.
    struct Condition {
      size_t earlier;
      const Column* earlier_col;
      const Column* next_col;
    };
    std::vector<Condition> conds;
    for (const QueryJoinCondition& j : db.spec.joins) {
      const size_t l = index_of(j.left_alias);
      const size_t r = index_of(j.right_alias);
      if (l == next && r < next) {
        conds.push_back({r, tables[r]->GetColumn(j.right_column).value(),
                         tables[l]->GetColumn(j.left_column).value()});
      } else if (r == next && l < next) {
        conds.push_back({l, tables[l]->GetColumn(j.left_column).value(),
                         tables[r]->GetColumn(j.right_column).value()});
      }
    }
    BQO_CHECK_MSG(!conds.empty(), "reference join needs a connected order");

    std::unordered_multimap<int64_t, int64_t> index;  // key -> row of `next`
    const std::vector<uint8_t> pass =
        NaiveSelection(*tables[next], rels[next].predicate);
    for (size_t row = 0; row < pass.size(); ++row) {
      if (!pass[row]) continue;
      const auto r = static_cast<int64_t>(row);
      index.emplace(conds[0].next_col->GetInt64(r), r);
    }
    std::vector<int64_t> joined;
    for (size_t t = 0; t < tuples.size(); t += next) {
      const int64_t* tuple = tuples.data() + t;
      const auto [begin, end] = index.equal_range(
          conds[0].earlier_col->GetInt64(tuple[conds[0].earlier]));
      for (auto it = begin; it != end; ++it) {
        bool match = true;
        for (size_t c = 1; c < conds.size() && match; ++c) {
          match = conds[c].earlier_col->GetInt64(tuple[conds[c].earlier]) ==
                  conds[c].next_col->GetInt64(it->second);
        }
        if (!match) continue;
        joined.insert(joined.end(), tuple, tuple + next);
        joined.push_back(it->second);
      }
    }
    tuples = std::move(joined);
  }

  // The spec's SUM input and group key: a column of one spec relation.
  struct AggInput {
    size_t rel = 0;
    const Column* col = nullptr;
    int64_t Of(const int64_t* tuple) const {
      return col->GetInt64(tuple[rel]);
    }
  };
  const auto resolve = [&](const BoundColumn& c) {
    BQO_CHECK(c.rel >= 0 && static_cast<size_t>(c.rel) < rels.size());
    const auto rel = static_cast<size_t>(c.rel);
    return AggInput{rel, tables[rel]->GetColumn(c.column).value()};
  };
  const bool is_sum = agg.kind == AggKind::kSum;
  const AggInput sum_in = is_sum ? resolve(agg.sum_column) : AggInput{};
  const AggInput group_in =
      agg.has_group_by ? resolve(agg.group_column) : AggInput{};

  ReferenceResult result;
  const Column* measure = tables[0]->GetColumn("measure").value();
  uint64_t total = 0;
  std::map<int64_t, uint64_t> groups;
  for (size_t t = 0; t < tuples.size(); t += rels.size()) {
    const int64_t* tuple = tuples.data() + t;
    ++result.count;
    result.sum += measure->GetInt64(tuple[0]);
    const uint64_t v = is_sum ? static_cast<uint64_t>(sum_in.Of(tuple)) : 1;
    total += v;
    if (agg.has_group_by) groups[group_in.Of(tuple)] += v;
  }
  result.total = static_cast<int64_t>(total);
  for (const auto& [key, value] : groups) {
    result.groups[key] = static_cast<int64_t>(value);
    result.checksum +=
        Mix64(HashCombine(HashValue(static_cast<uint64_t>(key)), value));
  }
  if (!agg.has_group_by) result.checksum = HashValue(total);
  return result;
}

/// \brief Predicate `attr0 < selectivity * domain` (≈ uniform selectivity).
inline ExprPtr SelPredicate(double selectivity, int64_t domain = 1000) {
  const int64_t bound = static_cast<int64_t>(selectivity * static_cast<double>(domain));
  return Lt("attr0", bound);
}

/// \brief Star query with PKFK joins (Definition 1): fact `f` referencing
/// dimensions `d0..d{n-1}`; `sels[i]` is dimension i's local selectivity
/// (negative = no predicate). Relation 0 in the QuerySpec is the fact.
inline std::unique_ptr<TestDb> MakeStarDb(int num_dims, int64_t fact_rows,
                                          int64_t dim_rows,
                                          const std::vector<double>& sels,
                                          uint64_t seed, double zipf = 0.0) {
  auto db = std::make_unique<TestDb>();
  Rng rng(seed);
  TableGenSpec fact;
  fact.name = "f";
  fact.rows = fact_rows;
  fact.with_pk = false;
  fact.with_label = false;
  for (int i = 0; i < num_dims; ++i) {
    TableGenSpec dim;
    dim.name = StringFormat("d%d", i);
    dim.rows = dim_rows;
    dim.with_label = false;
    GenerateTable(&db->catalog, dim, &rng);
    fact.fks.push_back(FkSpec{StringFormat("d%d_fk", i), dim.name,
                              dim.name + "_id", zipf, 0.0});
  }
  GenerateTable(&db->catalog, fact, &rng);

  db->spec.name = "star";
  db->spec.relations.push_back({"f", "f", nullptr});
  for (int i = 0; i < num_dims; ++i) {
    const double sel = i < static_cast<int>(sels.size()) ? sels[static_cast<size_t>(i)] : -1.0;
    db->spec.relations.push_back(
        {StringFormat("d%d", i), StringFormat("d%d", i),
         sel < 0 ? nullptr : SelPredicate(sel)});
    db->spec.joins.push_back({"f", StringFormat("d%d_fk", i),
                              StringFormat("d%d", i),
                              StringFormat("d%d_id", i)});
  }
  return db;
}

/// \brief Branch/chain query (Definition 4): R0 -> R1 -> ... -> Rn, with
/// |R_i| shrinking by `shrink` per level. Relation i of the QuerySpec is Ri.
inline std::unique_ptr<TestDb> MakeChainDb(int chain_len, int64_t r0_rows,
                                           double shrink,
                                           const std::vector<double>& sels,
                                           uint64_t seed, double zipf = 0.0) {
  BQO_CHECK(chain_len >= 2);
  auto db = std::make_unique<TestDb>();
  Rng rng(seed);
  // Generate outermost first (R_{n}) so FKs can reference existing tables.
  std::vector<int64_t> rows(static_cast<size_t>(chain_len));
  rows[0] = r0_rows;
  for (int i = 1; i < chain_len; ++i) {
    rows[static_cast<size_t>(i)] = std::max<int64_t>(
        8, static_cast<int64_t>(static_cast<double>(rows[static_cast<size_t>(i - 1)]) * shrink));
  }
  for (int i = chain_len - 1; i >= 0; --i) {
    TableGenSpec t;
    t.name = StringFormat("r%d", i);
    t.rows = rows[static_cast<size_t>(i)];
    t.with_pk = true;
    t.with_label = false;
    if (i + 1 < chain_len) {
      t.fks.push_back(FkSpec{StringFormat("r%d_fk", i + 1),
                             StringFormat("r%d", i + 1),
                             StringFormat("r%d_id", i + 1), zipf, 0.0});
    }
    GenerateTable(&db->catalog, t, &rng);
  }
  db->spec.name = "chain";
  for (int i = 0; i < chain_len; ++i) {
    const double sel = i < static_cast<int>(sels.size()) ? sels[static_cast<size_t>(i)] : -1.0;
    db->spec.relations.push_back({StringFormat("r%d", i),
                                  StringFormat("r%d", i),
                                  sel < 0 ? nullptr : SelPredicate(sel)});
    if (i > 0) {
      db->spec.joins.push_back(
          {StringFormat("r%d", i - 1), StringFormat("r%d_fk", i),
           StringFormat("r%d", i), StringFormat("r%d_id", i)});
    }
  }
  return db;
}

/// \brief Snowflake query (Definition 2): fact + branches of given lengths.
/// Aliases: fact "f"; branch i relation j (1-based) "b<i>_<j>".
/// QuerySpec relation order: f, then branches in order, fact-adjacent first.
inline std::unique_ptr<TestDb> MakeSnowflakeDb(
    const std::vector<int>& branch_lengths, int64_t fact_rows,
    int64_t dim_rows, double shrink, const std::vector<double>& branch_sels,
    uint64_t seed, double zipf = 0.0) {
  auto db = std::make_unique<TestDb>();
  Rng rng(seed);
  TableGenSpec fact;
  fact.name = "f";
  fact.rows = fact_rows;
  fact.with_pk = false;
  fact.with_label = false;

  for (size_t i = 0; i < branch_lengths.size(); ++i) {
    const int len = branch_lengths[i];
    // Outermost first.
    for (int j = len; j >= 1; --j) {
      TableGenSpec t;
      t.name = StringFormat("b%zu_%d", i, j);
      t.rows = std::max<int64_t>(
          8, static_cast<int64_t>(static_cast<double>(dim_rows) *
                                  std::pow(shrink, j - 1)));
      t.with_label = false;
      if (j < len) {
        t.fks.push_back(FkSpec{StringFormat("b%zu_%d_fk", i, j + 1),
                               StringFormat("b%zu_%d", i, j + 1),
                               StringFormat("b%zu_%d_id", i, j + 1), zipf,
                               0.0});
      }
      GenerateTable(&db->catalog, t, &rng);
    }
    fact.fks.push_back(FkSpec{StringFormat("b%zu_1_fk", i),
                              StringFormat("b%zu_1", i),
                              StringFormat("b%zu_1_id", i), zipf, 0.0});
  }
  GenerateTable(&db->catalog, fact, &rng);

  db->spec.name = "snowflake";
  db->spec.relations.push_back({"f", "f", nullptr});
  for (size_t i = 0; i < branch_lengths.size(); ++i) {
    const double sel = i < branch_sels.size() ? branch_sels[i] : -1.0;
    for (int j = 1; j <= branch_lengths[i]; ++j) {
      const std::string name = StringFormat("b%zu_%d", i, j);
      // Put the branch predicate on the outermost relation so its filter
      // must traverse the branch.
      const bool outermost = j == branch_lengths[i];
      db->spec.relations.push_back(
          {name, name, (outermost && sel >= 0) ? SelPredicate(sel) : nullptr});
      if (j == 1) {
        db->spec.joins.push_back({"f", StringFormat("b%zu_1_fk", i), name,
                                  name + "_id"});
      } else {
        db->spec.joins.push_back({StringFormat("b%zu_%d", i, j - 1),
                                  name + "_fk", name, name + "_id"});
      }
    }
  }
  return db;
}

}  // namespace bqo::testing
