#include "src/stats/table_stats.h"

namespace bqo {

double StatsCatalog::Distinct(const std::string& table,
                              const std::string& column) const {
  auto result = catalog_->GetTable(table);
  BQO_CHECK_MSG(result.ok(), "StatsCatalog: unknown table");
  const Table* t = result.value();
  const int idx = t->ColumnIndex(column);
  return idx < 0 ? 0.0 : static_cast<double>(t->column(idx).CountDistinct());
}

}  // namespace bqo
