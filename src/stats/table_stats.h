// Table and column statistics, and the statistics catalog.
//
// Statistics are exact where cheap (row counts, per-column distinct counts
// computed once per table and cached) — the paper's evaluation uses SQL
// Server's estimator, which gets single-table numbers approximately right;
// modeling estimation *error* is out of scope for reproducing its claims.
#pragma once

#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "src/storage/catalog.h"

namespace bqo {

struct ColumnStatsData {
  int64_t distinct = 0;
  int64_t min_value = 0;  ///< INT64 columns only
  int64_t max_value = 0;  ///< INT64 columns only
};

struct TableStatsData {
  int64_t rows = 0;
  std::unordered_map<std::string, ColumnStatsData> columns;

  /// \brief Distinct count of `column` (0 if unknown).
  double Distinct(const std::string& column) const;
};

/// \brief Lazily computed, cached statistics for every table in a catalog.
///
/// Thread-safe for concurrent Get (the QueryService optimizes
/// queries from many client threads against one shared StatsCatalog):
/// cache hits share a reader lock, and a miss computes under the writer
/// lock after re-checking. Returned references stay valid across
/// concurrent inserts because the cache is node-based. Invalidate() must
/// not race with readers — the serving layer serializes it against
/// in-flight optimizations (QueryService::InvalidateCache).
class StatsCatalog {
 public:
  explicit StatsCatalog(const Catalog* catalog) : catalog_(catalog) {}

  /// \brief Statistics for `table`; computed on first request.
  const TableStatsData& Get(const std::string& table);

  /// \brief Drop every cached entry (table data or schema changed). See
  /// the class comment for the required quiescence.
  void Invalidate();

 private:
  const Catalog* catalog_;
  std::shared_mutex mu_;
  std::unordered_map<std::string, TableStatsData> cache_;
};

}  // namespace bqo
