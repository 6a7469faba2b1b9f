#include "src/optimizer/cost_model.h"

#include "src/filter/bloom_filter.h"

namespace bqo {

int PruneIneffectiveFilters(Plan* plan, CoutModel* model,
                            double lambda_thresh, int passes) {
  BQO_CHECK(plan != nullptr);
  if (plan->filters.empty()) return 0;
  int pruned = 0;
  for (int pass = 0; pass < passes; ++pass) {
    const CoutBreakdown breakdown = model->Compute(*plan);
    bool changed = false;
    for (PlanFilter& f : plan->filters) {
      if (f.pruned) continue;
      f.estimated_lambda =
          breakdown.filter_lambda[static_cast<size_t>(f.id)];
      if (f.estimated_lambda < lambda_thresh) {
        f.pruned = true;
        ++pruned;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return pruned;
}

double LambdaThreshold(double filter_check_ns, double hash_probe_ns) {
  if (hash_probe_ns <= 0) return 1.0;
  const double t = 1.0 - filter_check_ns / hash_probe_ns;
  return t < 0 ? 0.0 : t;
}

double EstimatedFilterFpr(FilterKind kind, double bits_per_key) {
  // Design load: one key per b bits, through the filter's own FPR model.
  const double b = bits_per_key < 1.0 ? 1.0 : bits_per_key;
  switch (kind) {
    case FilterKind::kExact:
      return 0.0;
    case FilterKind::kBlockedBloom:
      return BloomFilter::ModelFpr(1.0, b);
  }
  return 0.0;
}

}  // namespace bqo
