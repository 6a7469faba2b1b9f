// The statistics catalog: the optimizers' read-through view of per-column
// statistics.
//
// Statistics are exact — the paper's evaluation uses SQL Server's
// estimator, which gets single-table numbers approximately right; modeling
// estimation *error* is out of scope for reproducing its claims. Distinct
// counts are memoized by the columns themselves (Column::CountDistinct,
// reset by every append), so the catalog keeps no state: it needs no lock,
// no invalidation, and never serves a count older than the data.
#pragma once

#include <string>

#include "src/storage/catalog.h"

namespace bqo {

class StatsCatalog {
 public:
  explicit StatsCatalog(const Catalog* catalog) : catalog_(catalog) {}

  /// \brief Distinct count of `table`.`column` (0 if the table has no such
  /// column). Safe to call from concurrent optimizers.
  double Distinct(const std::string& table, const std::string& column) const;

 private:
  const Catalog* catalog_;
};

}  // namespace bqo
