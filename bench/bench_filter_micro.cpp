// Micro-benchmarks (google-benchmark) for the bitvector filter
// implementations and the hash-join probe path: the per-tuple costs Cf
// (filter check) and Cp (hash probe) that Section 6.3's lambda_thresh
// formula is built from.
//
// Before the google-benchmark tables, main() emits one machine-readable
// JSON line per (filter kind, hit/miss) cell comparing the scalar
// MayContain loop against the batched, prefetched MayContainBatch path on a
// 1M-key probe stream — the perf trajectory these lines track is the point
// of the vectorized pipeline, so future PRs can scrape them into
// BENCH_*.json without parsing benchmark's human output.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/exec/batch.h"
#include "src/filter/bitvector_filter.h"

namespace bqo {
namespace {

std::vector<uint64_t> MakeKeys(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (auto& k : keys) k = rng.Next();
  return keys;
}

void BM_FilterInsert(benchmark::State& state) {
  const auto kind = static_cast<FilterKind>(state.range(0));
  const int64_t n = state.range(1);
  const auto keys = MakeKeys(n, 1);
  for (auto _ : state) {
    state.PauseTiming();
    FilterConfig config;
    config.kind = kind;
    auto filter = CreateFilter(config, n);
    state.ResumeTiming();
    for (uint64_t k : keys) filter->Insert(k);
    benchmark::DoNotOptimize(filter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FilterInsert)
    ->ArgsProduct({{0, 3}, {1 << 10, 1 << 16, 1 << 20}})
    ->ArgNames({"kind", "n"});

void BM_FilterProbeHit(benchmark::State& state) {
  const auto kind = static_cast<FilterKind>(state.range(0));
  const int64_t n = state.range(1);
  const auto keys = MakeKeys(n, 1);
  FilterConfig config;
  config.kind = kind;
  auto filter = CreateFilter(config, n);
  for (uint64_t k : keys) filter->Insert(k);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter->MayContain(keys[i]));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterProbeHit)
    ->ArgsProduct({{0, 3}, {1 << 16, 1 << 20}})
    ->ArgNames({"kind", "n"});

void BM_FilterProbeMiss(benchmark::State& state) {
  const auto kind = static_cast<FilterKind>(state.range(0));
  const int64_t n = state.range(1);
  const auto keys = MakeKeys(n, 1);
  const auto probes = MakeKeys(n, 2);  // disjoint with overwhelming prob.
  FilterConfig config;
  config.kind = kind;
  auto filter = CreateFilter(config, n);
  for (uint64_t k : keys) filter->Insert(k);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter->MayContain(probes[i]));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterProbeMiss)
    ->ArgsProduct({{0, 3}, {1 << 16, 1 << 20}})
    ->ArgNames({"kind", "n"});

/// Batched probe over kBatchSize-strides with an identity selection vector:
/// the shape the vectorized scan drives (see src/exec/scan.cc).
void BM_FilterProbeBatch(benchmark::State& state) {
  const auto kind = static_cast<FilterKind>(state.range(0));
  const int64_t n = state.range(1);
  const bool hits = state.range(2) != 0;
  const auto keys = MakeKeys(n, 1);
  const auto probes = hits ? keys : MakeKeys(n, 2);
  FilterConfig config;
  config.kind = kind;
  auto filter = CreateFilter(config, n);
  for (uint64_t k : keys) filter->Insert(k);
  std::vector<uint16_t> sel(kBatchSize);
  size_t base = 0;
  int64_t survivors = 0;
  for (auto _ : state) {
    if (base + kBatchSize > probes.size()) base = 0;
    for (int i = 0; i < kBatchSize; ++i) sel[i] = static_cast<uint16_t>(i);
    survivors +=
        filter->MayContainBatch(probes.data() + base, sel.data(), kBatchSize);
    base += kBatchSize;
  }
  benchmark::DoNotOptimize(survivors);
  state.SetItemsProcessed(state.iterations() * kBatchSize);
}
BENCHMARK(BM_FilterProbeBatch)
    ->ArgsProduct({{0, 3}, {1 << 16, 1 << 20}, {0, 1}})
    ->ArgNames({"kind", "n", "hits"});

void BM_CompositeHash(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  int64_t values[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= HashComposite(values, width);
    ++values[0];
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompositeHash)->Arg(1)->Arg(2)->Arg(4);

/// Batched column hashing (the scan's stride primitive) vs the scalar fold.
void BM_HashColumnBatch(benchmark::State& state) {
  std::vector<int64_t> values(kBatchSize);
  for (int i = 0; i < kBatchSize; ++i) values[i] = i * 2654435761LL;
  std::vector<uint64_t> out(kBatchSize);
  for (auto _ : state) {
    HashColumn(values.data(), kBatchSize, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatchSize);
}
BENCHMARK(BM_HashColumnBatch);

// ---------------------------------------------------------------------------
// JSON trajectory lines: scalar vs batched ns/probe on a 1M-key stream.
// ---------------------------------------------------------------------------

double MeasureScalarNs(const BitvectorFilter& filter,
                       const std::vector<uint64_t>& probes, int64_t* sink) {
  const auto start = std::chrono::steady_clock::now();
  int64_t passed = 0;
  for (uint64_t h : probes) passed += filter.MayContain(h) ? 1 : 0;
  const auto end = std::chrono::steady_clock::now();
  *sink += passed;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(probes.size());
}

double MeasureBatchedNs(const BitvectorFilter& filter,
                        const std::vector<uint64_t>& probes, int64_t* sink) {
  std::vector<uint16_t> sel(kBatchSize);
  const auto start = std::chrono::steady_clock::now();
  int64_t passed = 0;
  for (size_t base = 0; base < probes.size(); base += kBatchSize) {
    const int n = static_cast<int>(
        std::min<size_t>(kBatchSize, probes.size() - base));
    for (int i = 0; i < n; ++i) sel[i] = static_cast<uint16_t>(i);
    passed += filter.MayContainBatch(probes.data() + base, sel.data(), n);
  }
  const auto end = std::chrono::steady_clock::now();
  *sink += passed;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(probes.size());
}

void EmitScalarVsBatchedJson() {
  constexpr int64_t kProbes = 1 << 20;  // 1M-key probe stream
  constexpr int kReps = 5;              // min-of-k, warm cache
  int64_t sink = 0;
  // Two build regimes: 1M keys (the filter fits in a big L2, probes are
  // cache-resident) and 8M keys (the filter spills to L3/DRAM — the
  // decision-support regime where prefetching pays).
  for (const int64_t build_keys : {int64_t{1} << 20, int64_t{1} << 23}) {
    const auto keys = MakeKeys(build_keys, 1);
    const auto hit_probes = MakeKeys(kProbes, 1);  // prefix of `keys`
    const auto miss_probes = MakeKeys(kProbes, 2);
    for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
      FilterConfig config;
      config.kind = kind;
      auto filter = CreateFilter(config, build_keys);
      for (uint64_t k : keys) filter->Insert(k);
      // Measured FPR on the disjoint miss stream: every pass is a false
      // positive (the empirical point EstimatedFilterFpr's per-kind curves
      // are checked against).
      int64_t false_pos = 0;
      for (uint64_t h : miss_probes) false_pos += filter->MayContain(h) ? 1 : 0;
      const double measured_fpr =
          static_cast<double>(false_pos) / static_cast<double>(kProbes);
      for (const bool hit : {true, false}) {
        const auto& probes = hit ? hit_probes : miss_probes;
        double scalar_ns = 1e30, batched_ns = 1e30;
        for (int rep = 0; rep < kReps; ++rep) {
          scalar_ns =
              std::min(scalar_ns, MeasureScalarNs(*filter, probes, &sink));
          batched_ns =
              std::min(batched_ns, MeasureBatchedNs(*filter, probes, &sink));
        }
        std::printf(
            "{\"bench\":\"filter_probe_1M\",\"kind\":\"%s\",\"mode\":\"%s\","
            "\"build_keys\":%lld,\"filter_mb\":%.1f,"
            "\"scalar_ns_per_probe\":%.3f,\"batched_ns_per_probe\":%.3f,"
            "\"speedup\":%.2f,\"measured_fpr\":%.6f,\"simd_tier\":\"%s\"}\n",
            FilterKindName(kind), hit ? "hit" : "miss",
            static_cast<long long>(build_keys),
            static_cast<double>(filter->SizeBytes()) / (1024.0 * 1024.0),
            scalar_ns, batched_ns, scalar_ns / batched_ns, measured_fpr,
            SimdTierName(ActiveSimdTier()));
      }
    }
  }
  if (sink == 0) std::printf("# impossible\n");  // keep the loops observable
}

}  // namespace
}  // namespace bqo

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The JSON sweep costs ~2 min (three 8M-key filter builds, ~120M probes);
  // BQO_NO_JSON=1 skips it when only a filtered micro run is wanted.
  const char* no_json = std::getenv("BQO_NO_JSON");
  if (no_json == nullptr || no_json[0] == '\0' || no_json[0] == '0') {
    bqo::EmitScalarVsBatchedJson();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
