// Catalog: the set of tables in a database plus key metadata.
//
// The optimizer consumes two kinds of metadata the paper's analysis depends
// on: which columns are unique (primary keys — the "R1 -> R2" direction of
// Definition 1), and declared foreign-key relationships (used by the
// snowflake detector in Algorithm 3).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/storage/table.h"

namespace bqo {

/// \brief Declared FK: fk_table.fk_column references pk_table.pk_column.
struct ForeignKeyDef {
  std::string fk_table;
  std::string fk_column;
  std::string pk_table;
  std::string pk_column;
};

class Catalog {
 public:
  /// \brief Create and register an empty table; fails on duplicate name.
  Result<Table*> CreateTable(std::string name, std::vector<FieldDef> fields);

  Result<Table*> GetTable(std::string_view name);
  Result<const Table*> GetTable(std::string_view name) const;

  /// \brief Declare `column` unique in `table` (primary key or unique key).
  Status DeclarePrimaryKey(const std::string& table,
                           const std::string& column);

  /// \brief Declare a foreign key; both endpoints must exist.
  Status DeclareForeignKey(const ForeignKeyDef& fk);

  bool IsUniqueKey(std::string_view table, std::string_view column) const;

  const std::vector<ForeignKeyDef>& foreign_keys() const {
    return foreign_keys_;
  }

  std::vector<const Table*> tables() const;
  int num_tables() const { return static_cast<int>(tables_.size()); }

  int64_t TotalMemoryBytes() const;

  /// \brief Monotonic schema version, bumped by CreateTable /
  /// DeclarePrimaryKey / DeclareForeignKey. The serving layer's PlanCache
  /// snapshots it per entry and treats any change as an invalidation (a
  /// cached plan binds table pointers and key metadata). Data loaded into
  /// existing tables does not bump it; callers mutating data must
  /// invalidate explicitly (QueryService::InvalidateCache). Atomic:
  /// serving threads read it while a DDL/load thread bumps it.
  int64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }
  /// \brief Mark a non-DDL change (bulk data load, stats refresh) so
  /// version-checking caches drop stale entries.
  void BumpVersion() { version_.fetch_add(1, std::memory_order_relaxed); }

 private:
  StringMap<std::unique_ptr<Table>> tables_;
  std::vector<std::string> table_order_;  // creation order, for stable output
  // (table, column) pairs declared unique.
  StringMap<std::vector<std::string>> unique_keys_;
  std::vector<ForeignKeyDef> foreign_keys_;
  std::atomic<int64_t> version_{0};
};

}  // namespace bqo
