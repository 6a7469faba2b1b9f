#include "src/stats/table_stats.h"

#include <algorithm>
#include <mutex>

namespace bqo {

double TableStatsData::Distinct(const std::string& column) const {
  auto it = columns.find(column);
  return it == columns.end() ? 0.0 : static_cast<double>(it->second.distinct);
}

const TableStatsData& StatsCatalog::Get(const std::string& table) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(table);
    if (it != cache_.end()) return it->second;
  }
  // A miss computes under the writer lock, after re-checking: concurrent
  // optimizers asking for the same large table must not compute its
  // distinct counts twice (and unordered_map mutation is unsynchronized).
  // Entries are node-based, so the returned reference survives later
  // inserts.
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = cache_.find(table);
  if (it != cache_.end()) return it->second;

  TableStatsData stats;
  auto result = catalog_->GetTable(table);
  BQO_CHECK_MSG(result.ok(), "StatsCatalog: unknown table");
  const Table* t = result.value();
  stats.rows = t->num_rows();
  for (int c = 0; c < t->num_columns(); ++c) {
    const Column& col = t->column(c);
    ColumnStatsData cs;
    cs.distinct = col.CountDistinct();
    if (col.type() == DataType::kInt64 && t->num_rows() > 0) {
      const int64_t* data = col.int_data();
      auto [mn, mx] = std::minmax_element(data, data + t->num_rows());
      cs.min_value = *mn;
      cs.max_value = *mx;
    }
    stats.columns.emplace(col.name(), cs);
  }
  return cache_.emplace(table, std::move(stats)).first->second;
}

void StatsCatalog::Invalidate() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  cache_.clear();
}

}  // namespace bqo
