#include "src/workload/workload.h"

#include <cstdlib>
#include <optional>

#include "src/common/string_util.h"

namespace bqo {

double Workload::AvgJoins() const {
  if (queries.empty()) return 0;
  double total = 0;
  for (const QuerySpec& q : queries) total += q.num_joins();
  return total / static_cast<double>(queries.size());
}

int Workload::MaxJoins() const {
  int max_joins = 0;
  for (const QuerySpec& q : queries) {
    max_joins = std::max(max_joins, q.num_joins());
  }
  return max_joins;
}

double ScaleFromEnv() {
  // A value that is not one whole finite number ("0.1x", "inf", "1e999")
  // keeps the default: the generators multiply row counts by it.
  const char* s = std::getenv("BQO_SCALE");
  if (s == nullptr) return 1.0;
  const std::optional<double> v = ParseDouble(s);
  return v && *v > 0 ? *v : 1.0;
}

}  // namespace bqo
