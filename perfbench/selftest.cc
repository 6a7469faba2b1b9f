// Self-test of the benchmark's pure helpers (serve_core.h): percentiles
// refuse thin tails, and one seed always yields the same request stream.
// Exit code 0 = every check passed. Run: ctest --test-dir <build dir>.
#include <cstdio>
#include <set>
#include <vector>

#include "serve_core.h"
#include "src/expr/expr.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using perfbench::PercentileOf;
  // p90 of 1..100: rank 90, exactly 10 beyond — the smallest backed case.
  const auto p90 = PercentileOf(OneToN(100), 0.9);
  Check(p90.ok && p90.value == 90 && p90.beyond == 10 && p90.samples == 100,
        "p90 of 100 samples is backed by 10 beyond");
  Check(!PercentileOf(OneToN(99), 0.9).ok, "p90 of 99 samples is refused");
  const auto p50 = PercentileOf(OneToN(20), 0.5);
  Check(p50.ok && p50.value == 10 && p50.beyond == 10, "p50 of 20 samples");
  Check(!PercentileOf(OneToN(19), 0.5).ok, "p50 of 19 samples is refused");
  Check(!PercentileOf(OneToN(999), 0.99).ok, "p99 of 999 samples is refused");
  const auto p99 = PercentileOf(OneToN(1000), 0.99);
  Check(p99.ok && p99.value == 990, "p99 of 1000 samples");
  Check(!PercentileOf({}, 0.5).ok, "empty sample is refused");
  Check(perfbench::Median({3, 1, 2}) == 2 && perfbench::Median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");
}

void TestStreams() {
  using perfbench::PassOrder;
  const std::vector<int> a = PassOrder(7, 0, 3, 113);
  Check(a == PassOrder(7, 0, 3, 113), "same seed, same pass order");
  Check(std::set<int>(a.begin(), a.end()).size() == 113,
        "a pass serves each base query exactly once");
  Check(a != PassOrder(8, 0, 3, 113) && a != PassOrder(7, 0, 4, 113) &&
            a != PassOrder(7, 1, 3, 113),
        "seed, stream and pass each change the order");

  const perfbench::TemplatedStream s1(7, 48, 4, 0.9);
  const perfbench::TemplatedStream s2(7, 48, 4, 0.9);
  const perfbench::TemplatedStream other(8, 48, 4, 0.9);
  bool same = true, differs = false, in_range = true;
  std::vector<int> hits(48, 0);
  for (uint64_t t = 0; t < 20000; ++t) {
    const auto r1 = s1.At(t), r2 = s2.At(t), r3 = other.At(t);
    same &= r1.template_rank == r2.template_rank && r1.variant == r2.variant;
    differs |= r1.template_rank != r3.template_rank || r1.variant != r3.variant;
    in_range &= r1.template_rank >= 0 && r1.template_rank < 48 &&
                r1.variant >= 0 && r1.variant < 4;
    if (r1.template_rank >= 0 && r1.template_rank < 48) ++hits[r1.template_rank];
  }
  Check(same, "same seed, same templated request stream");
  Check(differs, "another seed, another templated request stream");
  Check(in_range, "templated requests stay in range");
  Check(hits[0] > hits[47], "Zipf rank 0 is the most popular template");
}

void TestJitter() {
  bqo::QuerySpec base;
  base.name = "q";
  base.relations.push_back(
      {"t", "t", bqo::And({bqo::Between("a", 1000, 2000), bqo::Lt("b", 500)})});
  const bqo::QuerySpec j1 = perfbench::JitterConstants(base, 42, 0.04);
  const bqo::QuerySpec j2 = perfbench::JitterConstants(base, 42, 0.04);
  Check(j1.relations[0].predicate->ToString() ==
            j2.relations[0].predicate->ToString(),
        "same seed, same jittered constants");
  Check(bqo::PredicateShape(j1.relations[0].predicate) ==
            bqo::PredicateShape(base.relations[0].predicate),
        "jitter keeps the plan-cache shape");
  const auto constants = bqo::CollectPredicateConstants(j1.relations[0].predicate);
  bool within = constants.size() == 3;
  const int64_t original[3] = {1000, 2000, 500};
  for (size_t i = 0; within && i < 3; ++i) {
    const int64_t v = constants[i].AsInt64();
    within = v >= original[i] * 96 / 100 && v <= original[i] * 104 / 100;
  }
  Check(within, "jittered constants stay within 4%");
}

}  // namespace

int main() {
  TestPercentile();
  TestStreams();
  TestJitter();
  if (failures == 0) std::printf("servebench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
