#include "src/storage/table.h"

#include "src/common/string_util.h"

namespace bqo {

Table::Table(std::string name, std::vector<FieldDef> fields)
    : name_(std::move(name)) {
  columns_.reserve(fields.size());
  for (auto& f : fields) {
    column_index_[f.name] = static_cast<int>(columns_.size());
    columns_.push_back(std::make_unique<Column>(f.name, f.type));
  }
}

int Table::ColumnIndex(std::string_view name) const {
  auto it = column_index_.find(name);
  return it == column_index_.end() ? -1 : it->second;
}

Result<const Column*> Table::GetColumn(std::string_view name) const {
  const int idx = ColumnIndex(name);
  if (idx < 0) {
    return Status::NotFound(
        StringFormat("column '%s' not in table '%s'",
                     std::string(name).c_str(), name_.c_str()));
  }
  return &column(idx);
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != num_columns()) {
    return Status::InvalidArgument(StringFormat(
        "row has %zu values, table '%s' has %d columns", values.size(),
        name_.c_str(), num_columns()));
  }
  for (int i = 0; i < num_columns(); ++i) {
    Column& col = column(i);
    const Value& v = values[static_cast<size_t>(i)];
    if (v.type() != col.type()) {
      return Status::InvalidArgument(StringFormat(
          "column '%s' expects %s, got %s", col.name().c_str(),
          DataTypeName(col.type()), DataTypeName(v.type())));
    }
    switch (col.type()) {
      case DataType::kInt64:
        col.AppendInt64(v.AsInt64());
        break;
      case DataType::kDouble:
        col.AppendDouble(v.AsDouble());
        break;
      case DataType::kString:
        col.AppendString(v.AsString());
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

void Table::FinishBulkLoad() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return;
  }
  const int64_t n = columns_[0]->size();
  for (const auto& c : columns_) {
    BQO_CHECK_MSG(c->size() == n, "ragged bulk load");
  }
  num_rows_ = n;
}

int64_t Table::MemoryBytes() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) bytes += c->MemoryBytes();
  return bytes;
}

}  // namespace bqo
