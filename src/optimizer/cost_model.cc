#include "src/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/filter/filter_kernels.h"

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
  const double b = bits_per_key < 1.0 ? 1.0 : bits_per_key;
  switch (kind) {
    case FilterKind::kExact:
      return 0.0;
    case FilterKind::kBloom: {
      // Mirror BloomFilter: k = round(0.6931 * b) clamped to [1, 4],
      // FPR = (1 - e^{-kn/m})^k at design load n/m = 1/b.
      const double k = std::clamp(std::lround(b * 0.6931), 1L, 4L);
      return std::pow(1.0 - std::exp(-k / b), k);
    }
    case FilterKind::kBlockedBloom: {
      // Mirror BlockedBloomFilter::TheoreticalFpRate at design load: keys
      // land in 256-bit sectors (mean occupancy 256/b keys), j resident
      // keys set a given word-bit with prob 1 - (31/32)^j, and a false
      // positive needs all 8 word-bits — a Poisson mixture that sits above
      // the classical curve at tight-to-moderate budgets (b <= ~10) and
      // degrades hard as b shrinks. At generous budgets the ordering
      // flips: classical's k is capped at 4, so blocked's fixed k=8
      // eventually wins on FPR too.
      const double lambda = 256.0 / b;
      double fpr = 0.0;
      double pois = std::exp(-lambda);
      double mass = 0.0;
      double per_word = 0.0;
      for (int j = 0; j < 2048 && mass < 1.0 - 1e-12; ++j) {
        if (j > 0) {
          pois *= lambda / static_cast<double>(j);
          per_word = 1.0 - (1.0 - per_word) * (31.0 / 32.0);
        }
        double all_words = per_word;
        for (int w = 1; w < blocked_bloom::kWordsPerSector; ++w) {
          all_words *= per_word;
        }
        fpr += pois * all_words;
        mass += pois;
      }
      return fpr;
    }
  }
  return 0.0;
}

}  // namespace bqo
