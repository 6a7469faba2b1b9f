#include "src/storage/catalog.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace bqo {

Result<Table*> Catalog::CreateTable(std::string name,
                                    std::vector<FieldDef> fields) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists(
        StringFormat("table '%s' already exists", name.c_str()));
  }
  auto table = std::make_unique<Table>(name, std::move(fields));
  Table* ptr = table.get();
  table_order_.push_back(name);
  tables_.emplace(std::move(name), std::move(table));
  ++version_;
  return ptr;
}

Result<Table*> Catalog::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(
        StringFormat("table '%s' not found", std::string(name).c_str()));
  }
  return it->second.get();
}

Result<const Table*> Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(
        StringFormat("table '%s' not found", std::string(name).c_str()));
  }
  return static_cast<const Table*>(it->second.get());
}

Status Catalog::DeclarePrimaryKey(const std::string& table,
                                  const std::string& column) {
  auto t = GetTable(table);
  BQO_RETURN_NOT_OK(t.status());
  if (t.value()->ColumnIndex(column) < 0) {
    return Status::NotFound(StringFormat("column '%s' not in table '%s'",
                                         column.c_str(), table.c_str()));
  }
  unique_keys_[table].push_back(column);
  ++version_;
  return Status::OK();
}

Status Catalog::DeclareForeignKey(const ForeignKeyDef& fk) {
  auto fkt = GetTable(fk.fk_table);
  BQO_RETURN_NOT_OK(fkt.status());
  auto pkt = GetTable(fk.pk_table);
  BQO_RETURN_NOT_OK(pkt.status());
  if (fkt.value()->ColumnIndex(fk.fk_column) < 0 ||
      pkt.value()->ColumnIndex(fk.pk_column) < 0) {
    return Status::NotFound("foreign key endpoint column not found");
  }
  foreign_keys_.push_back(fk);
  ++version_;
  return Status::OK();
}

bool Catalog::IsUniqueKey(std::string_view table,
                          std::string_view column) const {
  auto it = unique_keys_.find(table);
  if (it == unique_keys_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), column) !=
         it->second.end();
}

std::vector<const Table*> Catalog::tables() const {
  std::vector<const Table*> out;
  out.reserve(table_order_.size());
  for (const auto& name : table_order_) {
    out.push_back(tables_.at(name).get());
  }
  return out;
}

int64_t Catalog::TotalMemoryBytes() const {
  int64_t bytes = 0;
  for (const auto& [_, t] : tables_) bytes += t->MemoryBytes();
  return bytes;
}

}  // namespace bqo
