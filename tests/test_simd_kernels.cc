// SIMD kernel tier parity (src/common/simd.h, src/filter/filter_kernels.h).
//
// The dispatch contract is bit-identity: the AVX2 and scalar tiers compute
// the same function, so nothing observable — hashes, filter bits, pass
// sets, NumInserted journals, result checksums, merged FilterStats — may
// depend on which tier ran. Pins:
//
//  * Hash batch kernels equal the scalar reference on adversarial lengths
//    (0, 1, lane-1, lane, lane+1, 1M) for single-column and composite keys.
//  * The single-column join hash is a bijection of its key (HashBijection):
//    Mix64 and the single-key hash invert back to their inputs under both
//    tiers. The hash join's single-key probe relies on this to treat equal
//    hashes as equal keys (src/exec/hash_join.cc).
//  * BloomFilter (the blocked kind) built under one tier is
//    bit-compatible with probes under the other (both directions), agrees
//    with the scalar reference probe, and MergeFrom over tracked partials
//    reproduces the sequential filter's membership and NumInserted under
//    both tiers.
//  * The FPR model curve: at 4, 10 and 16 bits/key the measured FPR
//    tracks TheoreticalFpRate and the design-load curve EstimatedFilterFpr
//    encodes for EXPLAIN ANALYZE.
//  * E2E: star / snowflake plans over pools {1,2,4} and both
//    tiers produce byte-identical checksums and merged FilterStats.
//
// AVX2 legs skip on hosts without AVX2 (CpuSupportsAvx2) — the scalar legs
// and the cross-checks against the references still run everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/simd.h"
#include "src/exec/executor.h"
#include "src/filter/bloom_filter.h"
#include "src/filter/filter_kernels.h"
#include "src/optimizer/cost_model.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeChainDb;
using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;

std::vector<int64_t> RandomValues(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int64_t>(rng());
  return v;
}

// Lane width of the AVX2 hash kernels is 4; 0/1/3/4/5 probe the empty,
// all-tail, partial-tail, exact-lane, and lane+tail paths, 1M the steady
// state (and any accidental quadratic or misaligned access).
const int kAdversarialLengths[] = {0, 1, 3, 4, 5, 1000000};

TEST(SimdHashKernels, ColumnParityOnAdversarialLengths) {
  for (int n : kAdversarialLengths) {
    const std::vector<int64_t> values = RandomValues(n, 0x5eed0 + n);
    std::vector<uint64_t> ref(static_cast<size_t>(n) + 1, 0);
    HashColumn(values.data(), n, ref.data(), /*seed=*/7);

    for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
      if (tier == SimdTier::kAvx2 && !CpuSupportsAvx2()) continue;
      ScopedSimdTier force(tier);
      std::vector<uint64_t> out(static_cast<size_t>(n) + 1, 0);
      HashColumnKernel(values.data(), n, out.data(), /*seed=*/7);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(out[static_cast<size_t>(i)], ref[static_cast<size_t>(i)])
            << "tier=" << SimdTierName(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdHashKernels, CompositeParityOnAdversarialLengths) {
  for (size_t num_cols : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    for (int n : kAdversarialLengths) {
      if (n >= 1000000 && num_cols > 2) continue;  // bound test time
      std::vector<std::vector<int64_t>> storage;
      std::vector<const int64_t*> cols;
      for (size_t c = 0; c < num_cols; ++c) {
        storage.push_back(RandomValues(n, 0xc01 * (c + 1) + n));
        cols.push_back(storage.back().data());
      }
      std::vector<uint64_t> ref(static_cast<size_t>(n) + 1, 0);
      HashCompositeBatch(cols.data(), num_cols, n, ref.data(), /*seed=*/3);

      for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
        if (tier == SimdTier::kAvx2 && !CpuSupportsAvx2()) continue;
        ScopedSimdTier force(tier);
        std::vector<uint64_t> out(static_cast<size_t>(n) + 1, 0);
        HashCompositeBatchKernel(cols.data(), num_cols, n, out.data(),
                                 /*seed=*/3);
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(out[static_cast<size_t>(i)], ref[static_cast<size_t>(i)])
              << "tier=" << SimdTierName(tier) << " cols=" << num_cols
              << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// -------------------------------------------------------------------------
// Blocked Bloom: tier parity and scalar-reference parity.
// -------------------------------------------------------------------------

std::vector<uint64_t> KeyHashes(int n, uint64_t seed) {
  const std::vector<int64_t> keys = RandomValues(n, seed);
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  HashColumn(keys.data(), n, hashes.data());
  return hashes;
}

/// Batched pass set of `filter` over `hashes`, as the surviving indices.
std::vector<uint16_t> PassSet(const BitvectorFilter& filter,
                              const std::vector<uint64_t>& hashes) {
  std::vector<uint16_t> sel(hashes.size());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint16_t>(i);
  const int out = filter.MayContainBatch(hashes.data(), sel.data(),
                                         static_cast<int>(sel.size()));
  sel.resize(static_cast<size_t>(out));
  return sel;
}

/// Inverse of x * c mod 2^64 for odd c, by Newton's iteration (each step
/// doubles the number of correct low bits: 3 -> 6 -> ... -> 96).
uint64_t ModularInverse(uint64_t c) {
  uint64_t inv = c;  // correct to 3 bits for odd c
  for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
  return inv;
}

/// Inverse of Mix64: x ^= x >> 33 is its own inverse (a second application
/// cancels, since x >> 66 is 0), and each multiply by an odd constant
/// inverts by multiplying with its modular inverse.
uint64_t InverseMix64(uint64_t x) {
  const uint64_t inv1 = ModularInverse(0xff51afd7ed558ccdULL);
  const uint64_t inv2 = ModularInverse(0xc4ceb9fe1a85ec53ULL);
  x ^= x >> 33;
  x *= inv2;
  x ^= x >> 33;
  x *= inv1;
  x ^= x >> 33;
  return x;
}

std::vector<int64_t> BijectionInputs() {
  std::vector<int64_t> values = RandomValues(100000, 0xb17ec7);
  for (int64_t v : {INT64_MIN, INT64_MAX, int64_t{0}, int64_t{-1},
                    int64_t{1}}) {
    values.push_back(v);
  }
  return values;
}

TEST(HashBijection, Mix64RoundTrips) {
  for (uint64_t c : {0xff51afd7ed558ccdULL, 0xc4ceb9fe1a85ec53ULL}) {
    ASSERT_EQ(c * ModularInverse(c), 1u) << std::hex << c;
  }
  for (int64_t v : BijectionInputs()) {
    const auto x = static_cast<uint64_t>(v);
    ASSERT_EQ(InverseMix64(Mix64(x)), x) << v;
  }
}

/// HashColumn(v) = HashCombine(h0, v) = h0 ^ (Mix64(v) + K + (h0 << 12) +
/// (h0 >> 4)) with h0 = CompositeSeed(0): xor with a constant, an add of a
/// constant and Mix64 are each invertible, so the single-key hash is a
/// bijection of the key, and a hash match is a key match.
TEST(HashBijection, SingleKeyHashInvertsToItsKey) {
  const std::vector<int64_t> values = BijectionInputs();
  const int n = static_cast<int>(values.size());
  const uint64_t h0 = CompositeSeed(0);
  const uint64_t k = 0x9e3779b97f4a7c15ULL + (h0 << 12) + (h0 >> 4);
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (tier == SimdTier::kAvx2 && !CpuSupportsAvx2()) continue;
    ScopedSimdTier force(tier);
    std::vector<uint64_t> hashes(values.size());
    HashColumnKernel(values.data(), n, hashes.data());
    for (int i = 0; i < n; ++i) {
      const uint64_t h = hashes[static_cast<size_t>(i)];
      const int64_t v = values[static_cast<size_t>(i)];
      ASSERT_EQ(h, HashComposite(&v, 1));
      ASSERT_EQ(static_cast<int64_t>(InverseMix64((h ^ h0) - k)), v)
          << "tier=" << SimdTierName(tier) << " i=" << i;
    }
  }
}

TEST(BlockedBloom, TierParityInsertProbeAndCrossTier) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const int kKeys = 20000;
  const std::vector<uint64_t> keys = KeyHashes(kKeys, 0xbeef);
  const std::vector<uint64_t> probes = KeyHashes(4096, 0xfeed);

  auto build = [&](SimdTier tier) {
    ScopedSimdTier force(tier);
    auto f = std::make_unique<BloomFilter>(kKeys, 10.0);
    for (uint64_t h : keys) f->Insert(h);
    return f;
  };
  auto scalar_built = build(SimdTier::kScalar);
  auto avx2_built = build(SimdTier::kAvx2);

  // Same keys => same logical count and the same bits, whichever tier set
  // them; probing under either tier must agree with the scalar reference.
  EXPECT_EQ(scalar_built->NumInserted(), avx2_built->NumInserted());
  for (uint64_t h : keys) {
    ASSERT_TRUE(scalar_built->MayContain(h));  // no false negatives
    ASSERT_TRUE(avx2_built->MayContain(h));
  }
  for (const auto* f : {scalar_built.get(), avx2_built.get()}) {
    std::vector<uint16_t> ref_pass;
    for (size_t i = 0; i < probes.size(); ++i) {
      if (f->MayContain(probes[i])) {
        ref_pass.push_back(static_cast<uint16_t>(i));
      }
    }
    // Cross-tier probes: scalar-built probed under AVX2 and vice versa —
    // the production mix (filters filled at build, probed in scans).
    {
      ScopedSimdTier force(SimdTier::kScalar);
      EXPECT_EQ(PassSet(*f, probes), ref_pass);
    }
    {
      ScopedSimdTier force(SimdTier::kAvx2);
      EXPECT_EQ(PassSet(*f, probes), ref_pass);
    }
  }
}

TEST(BlockedBloom, MergeFromReproducesSequentialUnderBothTiers) {
  const int kKeys = 30000;
  // Duplicate-heavy key stream so the journal replay actually has
  // cross-partition duplicates to discount.
  std::vector<uint64_t> keys = KeyHashes(kKeys, 0xd00d);
  for (int i = 0; i < kKeys / 4; ++i) {
    keys.push_back(keys[static_cast<size_t>(i) * 3 % keys.size()]);
  }
  const std::vector<uint64_t> probes = KeyHashes(4096, 0xabba);

  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (tier == SimdTier::kAvx2 && !CpuSupportsAvx2()) continue;
    ScopedSimdTier force(tier);

    BloomFilter sequential(static_cast<int64_t>(keys.size()), 10.0);
    for (uint64_t h : keys) sequential.Insert(h);

    BloomFilter merged(static_cast<int64_t>(keys.size()), 10.0);
    const size_t chunk = (keys.size() + 3) / 4;
    for (size_t p = 0; p < 4; ++p) {
      BloomFilter partial(static_cast<int64_t>(keys.size()), 10.0);
      partial.EnableInsertTracking();
      const size_t begin = p * chunk;
      const size_t end = std::min(keys.size(), begin + chunk);
      for (size_t i = begin; i < end; ++i) partial.Insert(keys[i]);
      merged.MergeFrom(partial);
    }

    EXPECT_EQ(merged.NumInserted(), sequential.NumInserted())
        << "tier=" << SimdTierName(tier);
    for (uint64_t h : keys) ASSERT_TRUE(merged.MayContain(h));
    EXPECT_EQ(PassSet(merged, probes), PassSet(sequential, probes))
        << "tier=" << SimdTierName(tier);
  }
}

TEST(BlockedBloom, MeasuredFprTracksModel) {
  // A fixed 1024-block (64 KB) filter filled to b bits/key exactly, so the
  // filter runs at the design load EstimatedFilterFpr assumes.
  constexpr int64_t kBlocks = 1024;
  constexpr int kProbes = 200000;
  // Disjoint probe hashes (different generator stream) — every pass is a
  // false positive.
  const std::vector<uint64_t> probes = KeyHashes(kProbes, 0x2222);
  for (double b : {4.0, 10.0, 16.0}) {
    const auto n = static_cast<int>(static_cast<double>(kBlocks * 512) / b);
    BloomFilter filter(n, b);
    ASSERT_EQ(filter.SizeBytes(), kBlocks * 64) << "bits=" << b;
    for (uint64_t h : KeyHashes(n, 0x1111)) filter.Insert(h);
    int64_t fp = 0;
    for (uint64_t h : probes) fp += filter.MayContain(h) ? 1 : 0;
    const double measured =
        static_cast<double>(fp) / static_cast<double>(kProbes);
    const double design = EstimatedFilterFpr(FilterKind::kBlockedBloom, b);
    // Measured against the model at the filter's own load, and against the
    // design-load curve; the band is loose enough for the sampling noise of
    // ~260 false positives at 16 bits/key.
    EXPECT_GT(measured, 0.5 * filter.TheoreticalFpRate()) << "bits=" << b;
    EXPECT_LT(measured, 2.0 * filter.TheoreticalFpRate()) << "bits=" << b;
    EXPECT_GT(measured, 0.75 * design) << "bits=" << b;
    EXPECT_LT(measured, 1.25 * design) << "bits=" << b;
  }
  // The design-load curve falls steeply with the budget.
  EXPECT_GT(EstimatedFilterFpr(FilterKind::kBlockedBloom, 4.0), 0.25);
  EXPECT_LT(EstimatedFilterFpr(FilterKind::kBlockedBloom, 16.0), 0.002);
}

// -------------------------------------------------------------------------
// E2E tier parity: checksums and merged FilterStats must be invariant
// across tiers and pool sizes.
// -------------------------------------------------------------------------

void ExpectRunsEqual(const QueryMetrics& base, const QueryMetrics& m,
                     const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].created, base.filters[i].created) << what << " f" << i;
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " f" << i;
  }
}

void SweepTiersAndPools(const Plan& plan, ExecutionOptions options,
                        const std::string& what) {
  QueryMetrics base;
  {
    ScopedSimdTier force(SimdTier::kScalar);
    base = ExecutePlan(plan, options);
  }
  ASSERT_GT(base.leaf_tuples, 0) << what;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (tier == SimdTier::kAvx2 && !CpuSupportsAvx2()) continue;
    for (int threads : {1, 2, 4}) {
      ScopedSimdTier force(tier);
      ExecutionOptions opts = options;
      opts.exec.threads = threads;
      opts.exec.morsel_rows = 2048;
      const QueryMetrics m = ExecutePlan(plan, opts);
      ExpectRunsEqual(base, m,
                      what + " tier=" + SimdTierName(tier) +
                          " pool=" + std::to_string(threads));
    }
  }
}

TEST(SimdE2E, StarBlockedBloomTierAndPoolInvariant) {
  auto db = MakeStarDb(3, 30000, 400, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  ExecutionOptions options;
  options.filter_config.kind = FilterKind::kBlockedBloom;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "measure"};
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "d0_id"};
  SweepTiersAndPools(plan, options, "star/blocked");
}

TEST(SimdE2E, SnowflakeBlockedBloomTierAndPoolInvariant) {
  auto db = MakeSnowflakeDb({2, 2}, 20000, 500, 0.5, {0.4, 0.5}, 1234,
                            /*zipf=*/0.4);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3, 4});
  PushDownBitvectors(&plan);

  ExecutionOptions options;
  options.filter_config.kind = FilterKind::kBlockedBloom;
  SweepTiersAndPools(plan, options, "snowflake/blocked");
}

}  // namespace
}  // namespace bqo
