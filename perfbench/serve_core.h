// Pure helpers of the serving benchmark: percentiles that refuse to
// extrapolate, and the seeded request streams the workloads draw from.
// Kept free of timing and I/O so selftest.cc can pin them exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/plan/predicate_shape.h"
#include "src/workload/query.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond (above) it; otherwise the tail it names is a guess.
constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  bool ok = false;     ///< false = refused: too few samples beyond
  double value = 0;    ///< nearest-rank value (valid when ok)
  size_t samples = 0;  ///< sample count the percentile was taken over
  size_t beyond = 0;   ///< samples strictly above the rank
};

/// \brief Nearest-rank `q`-quantile (0 < q < 1) of `samples`: the value
/// at 1-based rank ceil(q * n). Refused (ok == false) when fewer than
/// kMinSamplesBeyond samples rank above it.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  // The epsilon keeps 0.9 * 100 at rank 90, not 91.
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  p.beyond = n - rank;
  if (p.beyond < kMinSamplesBeyond) return p;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.ok = true;
  return p;
}

/// \brief Median of a non-empty sample (the mean of the middle pair for
/// even counts) — for repeated set-up timings, not for latency tails.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// \brief Order-sensitive 64-bit mix of two words (SplitMix64 finalizer):
/// derives independent sub-seeds from the workload seed.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief Ad hoc stream: the order in which one pass serves the `n` base
/// queries — a seeded permutation, so a pass never repeats a query text.
/// `stream` separates independent clients (and traced/untraced servers).
inline std::vector<int> PassOrder(uint64_t seed, uint64_t stream,
                                  uint64_t pass, int n) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  bqo::Rng rng(Mix(Mix(seed, stream), pass));
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.Uniform(static_cast<uint64_t>(i) + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

struct TemplatedRequest {
  int template_rank = 0;  ///< 0 = most popular template
  int variant = 0;        ///< 0 = the template's own constants
};

/// \brief Templated stream: request `ticket` draws a template rank by
/// Zipf(theta) and a constant variant uniformly. A pure function of
/// (seed, ticket), so concurrent clients claiming tickets off one counter
/// replay the same request sequence on every run with that seed.
class TemplatedStream {
 public:
  TemplatedStream(uint64_t seed, int templates, int variants, double theta)
      : seed_(seed), variants_(variants),
        zipf_(static_cast<uint64_t>(templates), theta) {}

  TemplatedRequest At(uint64_t ticket) const {
    bqo::Rng rng(Mix(seed_, ticket));
    TemplatedRequest r;
    r.template_rank = static_cast<int>(zipf_.Sample(rng));
    r.variant = static_cast<int>(rng.Uniform(static_cast<uint64_t>(variants_)));
    return r;
  }

 private:
  uint64_t seed_;
  int variants_;
  bqo::ZipfGenerator zipf_;
};

/// \brief `base` with every int constant of every local predicate moved by
/// a seeded factor in [-max_rel, +max_rel] (rounded; a constant too small
/// to move stays put). Structure is untouched, so the result has the same
/// plan-cache shape as `base` and exercises the rebind path.
inline bqo::QuerySpec JitterConstants(const bqo::QuerySpec& base,
                                      uint64_t seed, double max_rel) {
  bqo::QuerySpec spec = base;
  bqo::Rng rng(seed);
  for (bqo::QueryRelation& rel : spec.relations) {
    if (rel.predicate == nullptr) continue;
    std::vector<bqo::Value> constants =
        bqo::CollectPredicateConstants(rel.predicate);
    if (constants.empty()) continue;
    for (bqo::Value& c : constants) {
      if (c.type() != bqo::DataType::kInt64) continue;
      const double u = 2.0 * rng.NextDouble() - 1.0;
      const int64_t v = c.AsInt64();
      c = bqo::Value(static_cast<int64_t>(
          v + std::llround(static_cast<double>(v) * u * max_rel)));
    }
    rel.predicate = bqo::RebindPredicateConstants(rel.predicate, constants);
  }
  return spec;
}

}  // namespace perfbench
