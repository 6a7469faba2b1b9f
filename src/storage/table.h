// In-memory tables: a named set of columns of equal length.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/storage/column.h"

namespace bqo {

/// \brief Column metadata in a table schema.
struct FieldDef {
  std::string name;
  DataType type;
};

/// \brief A fully materialized columnar table.
class Table {
 public:
  Table(std::string name, std::vector<FieldDef> fields);

  const std::string& name() const { return name_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }

  /// \brief Index of the column named `name`, or -1 if absent.
  int ColumnIndex(std::string_view name) const;

  Column& column(int idx) {
    BQO_DCHECK(idx >= 0 && idx < num_columns());
    return *columns_[static_cast<size_t>(idx)];
  }
  const Column& column(int idx) const {
    BQO_DCHECK(idx >= 0 && idx < num_columns());
    return *columns_[static_cast<size_t>(idx)];
  }

  Result<const Column*> GetColumn(std::string_view name) const;

  /// \brief Append one row given per-column values. Used by data generators
  /// and tests; bulk loading goes through the columns directly.
  Status AppendRow(const std::vector<Value>& values);

  /// \brief Must be called by bulk loaders after appending directly to
  /// columns; verifies all columns have equal length and records the count.
  void FinishBulkLoad();

  int64_t MemoryBytes() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  StringMap<int> column_index_;
  int64_t num_rows_ = 0;
};

}  // namespace bqo
