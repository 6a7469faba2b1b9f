// Unit + property tests for the bitvector filter implementations.
//
// The load-bearing invariant for the whole system is *zero false negatives*:
// a filter that drops a qualifying tuple changes query results. False
// positives only cost performance; Bloom rates are bounded below.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/filter/bitvector_filter.h"
#include "src/filter/bloom_filter.h"
#include "src/filter/exact_filter.h"
#include "src/optimizer/cost_model.h"

namespace bqo {
namespace {

TEST(ExactFilter, NoFalsePositivesOrNegatives) {
  Rng rng(42);
  ExactFilter filter(1000);
  std::unordered_set<uint64_t> inserted;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t h = rng.Next();
    filter.Insert(h);
    inserted.insert(h);
  }
  for (uint64_t h : inserted) EXPECT_TRUE(filter.MayContain(h));
  int fp = 0;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t h = rng.Next();
    if (inserted.count(h) == 0 && filter.MayContain(h)) ++fp;
  }
  EXPECT_EQ(fp, 0);
}

TEST(ExactFilter, HandlesZeroHash) {
  ExactFilter filter(4);
  EXPECT_FALSE(filter.MayContain(0));
  filter.Insert(0);
  EXPECT_TRUE(filter.MayContain(0));
  EXPECT_EQ(filter.NumInserted(), 1);
}

TEST(ExactFilter, GrowsPastInitialCapacity) {
  ExactFilter filter(4);  // will need to grow
  Rng rng(7);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) filter.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(ExactFilter, DuplicateInsertIdempotent) {
  ExactFilter filter(8);
  filter.Insert(123);
  filter.Insert(123);
  EXPECT_TRUE(filter.MayContain(123));
  // NumInserted counts keys logically added, so duplicates don't count.
  EXPECT_EQ(filter.NumInserted(), 1);
  filter.Insert(0);
  filter.Insert(0);
  EXPECT_EQ(filter.NumInserted(), 2);
}

// ---- Parameterized no-false-negative sweep over all filter kinds/sizes ----

struct FilterCase {
  FilterKind kind;
  int64_t n;
};

class FilterPropertyTest : public ::testing::TestWithParam<FilterCase> {};

TEST_P(FilterPropertyTest, NoFalseNegatives) {
  const FilterCase param = GetParam();
  FilterConfig config;
  config.kind = param.kind;
  auto filter = CreateFilter(config, param.n);
  Rng rng(static_cast<uint64_t>(param.n) * 31 + static_cast<int>(param.kind));
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(param.n));
  for (int64_t i = 0; i < param.n; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) filter->Insert(k);
  for (uint64_t k : keys) {
    ASSERT_TRUE(filter->MayContain(k)) << FilterKindName(param.kind);
  }
  // NumInserted counts keys logically added. The keys are distinct random
  // hashes, so the exact filter counts all of them; the approximate kinds
  // may fold a small fraction (<~2%, their FP rate) into existing entries.
  EXPECT_LE(filter->NumInserted(), param.n);
  if (param.kind == FilterKind::kExact) {
    EXPECT_EQ(filter->NumInserted(), param.n);
  } else {
    EXPECT_GE(filter->NumInserted(), param.n - param.n / 50);
  }
  EXPECT_GT(filter->SizeBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, FilterPropertyTest,
    ::testing::Values(FilterCase{FilterKind::kExact, 10},
                      FilterCase{FilterKind::kExact, 10000},
                      FilterCase{FilterKind::kBloom, 10},
                      FilterCase{FilterKind::kBloom, 1000},
                      FilterCase{FilterKind::kBloom, 100000},
                      FilterCase{FilterKind::kBlockedBloom, 10},
                      FilterCase{FilterKind::kBlockedBloom, 1000},
                      FilterCase{FilterKind::kBlockedBloom, 100000}),
    [](const ::testing::TestParamInfo<FilterCase>& info) {
      return std::string(FilterKindName(info.param.kind)) + "_" +
             std::to_string(info.param.n);
    });

/// The properties every Bloom bit pattern must have, run once per pattern.
template <typename Pattern>
class BloomPatternTest : public ::testing::Test {};

struct PatternName {
  template <typename Pattern>
  static std::string GetName(int) {
    return FilterKindName(Pattern::kKind);
  }
};

using BloomPatterns = ::testing::Types<DoubleHashPattern, SectorPattern>;
TYPED_TEST_SUITE(BloomPatternTest, BloomPatterns, PatternName);

TYPED_TEST(BloomPatternTest, FpRateWithinTwiceTheory) {
  const int64_t n = 50000;
  BloomFilter<TypeParam> filter(n, 10.0);
  Rng rng(9);
  std::unordered_set<uint64_t> inserted;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = rng.Next();
    filter.Insert(h);
    inserted.insert(h);
  }
  int fp = 0;
  const int probes = 200000;
  for (int i = 0; i < probes; ++i) {
    const uint64_t h = rng.Next();
    if (inserted.count(h) == 0 && filter.MayContain(h)) ++fp;
  }
  const double observed = static_cast<double>(fp) / probes;
  // Blocking costs a modest FP penalty vs each pattern's model; the model
  // value at ~10 bits/key is about 1% for both patterns, so stay under 2x +
  // slack.
  EXPECT_LT(observed, 2.0 * filter.TheoreticalFpRate() + 0.005);
  // And it should actually filter: well under 5%.
  EXPECT_LT(observed, 0.05);
}

TYPED_TEST(BloomPatternTest, MoreBitsFewerFalsePositives) {
  const int64_t n = 20000;
  Rng rng(11);
  std::vector<uint64_t> keys, probes;
  for (int64_t i = 0; i < n; ++i) keys.push_back(rng.Next());
  for (int i = 0; i < 100000; ++i) probes.push_back(rng.Next());
  double rates[2];
  const double bits[2] = {4.0, 12.0};
  for (int b = 0; b < 2; ++b) {
    BloomFilter<TypeParam> filter(n, bits[b]);
    for (uint64_t k : keys) filter.Insert(k);
    int fp = 0;
    for (uint64_t p : probes) {
      if (filter.MayContain(p)) ++fp;
    }
    rates[b] = static_cast<double>(fp) / static_cast<double>(probes.size());
  }
  EXPECT_GT(rates[0], rates[1] * 3);
}

TEST(BloomFilter, HashCountClampedToAtLeastOne) {
  // bits_per_key = 1.0 rounds 0.693 up to k = 1; the clamp guarantees k >= 1
  // so the filter always sets at least one bit and can reject something.
  BloomFilter<DoubleHashPattern> low(10000, 1.0);
  EXPECT_EQ(low.num_probes(), 1);
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) low.Insert(rng.Next());
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!low.MayContain(rng.Next())) ++rejected;
  }
  EXPECT_GT(rejected, 0);  // k = 0 would admit everything
  // And the CPU-side cap: 10 bits/key rounds to 7 probes, clamped to 4.
  BloomFilter<DoubleHashPattern> high(10000, 10.0);
  EXPECT_EQ(high.num_probes(), 4);
}

TEST(FilterFactory, CreatesRequestedKinds) {
  FilterConfig config;
  for (FilterKind kind :
       {FilterKind::kExact, FilterKind::kBloom, FilterKind::kBlockedBloom}) {
    config.kind = kind;
    auto f = CreateFilter(config, 100);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->kind(), kind);
    EXPECT_EQ(f->exact(), kind == FilterKind::kExact);
  }
}

/// EXPLAIN ANALYZE's modeled FPR is each pattern's FPR model at design
/// load. The values are pinned bit for bit, so any change to either model
/// shows here.
TEST(FprModel, DesignLoadValuesArePinned) {
  struct Pin {
    double bits;
    double classical;
    double sector;
  };
  const Pin pins[] = {
      {1.0, 0.63212055882855767, 0.99732034048370599},
      {4.0, 0.14689159766038104, 0.32576436650770724},
      {10.0, 0.011813270906619364, 0.01264845153548716},
      {16.0, 0.0023940561975645614, 0.0013155734026977144},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(EstimatedFilterFpr(FilterKind::kBloom, pin.bits), pin.classical)
        << "bits=" << pin.bits;
    EXPECT_EQ(EstimatedFilterFpr(FilterKind::kBlockedBloom, pin.bits),
              pin.sector)
        << "bits=" << pin.bits;
  }
  EXPECT_EQ(EstimatedFilterFpr(FilterKind::kExact, 10.0), 0.0);
}

// ---- MergeFrom: partitioned parallel builds fold partials into one filter.

TEST(ExactFilterMerge, SetUnionWithOverlapAndZeroHash) {
  Rng rng(271);
  std::vector<uint64_t> a_keys, b_keys;
  for (int i = 0; i < 500; ++i) a_keys.push_back(rng.Next());
  for (int i = 0; i < 400; ++i) b_keys.push_back(rng.Next());
  // Overlap: 100 of a's keys also land in b, plus the zero-hash sentinel
  // in both.
  b_keys.insert(b_keys.end(), a_keys.begin(), a_keys.begin() + 100);
  a_keys.push_back(0);
  b_keys.push_back(0);

  ExactFilter a(512), b(512);
  for (uint64_t k : a_keys) a.Insert(k);
  for (uint64_t k : b_keys) b.Insert(k);
  a.MergeFrom(b);

  for (uint64_t k : a_keys) EXPECT_TRUE(a.MayContain(k));
  for (uint64_t k : b_keys) EXPECT_TRUE(a.MayContain(k));
  // Exactly the distinct union: 500 + 400 distinct + the zero hash.
  EXPECT_EQ(a.NumInserted(), 901);
  // Non-members still rejected (merge kept exactness).
  int fp = 0;
  for (int i = 0; i < 20000; ++i) {
    if (a.MayContain(rng.Next())) ++fp;
  }
  EXPECT_EQ(fp, 0);
}

/// Tracked Bloom merge must reproduce the *sequential* filter bit-for-bit
/// in behavior and count: same geometry partials ORed in partition order.
/// Run undersized (1.5 bits/key) so probe bits overlap heavily across keys
/// — the regime where naive count summing diverges.
TYPED_TEST(BloomPatternTest, TrackedMergeMatchesSequentialBuild) {
  Rng rng(999);
  constexpr int kKeys = 3000;
  std::vector<uint64_t> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back(rng.Next());
  // Duplicates across partition boundaries, too.
  for (int i = 0; i < 300; ++i) keys.push_back(keys[static_cast<size_t>(i)]);

  BloomFilter<TypeParam> sequential(kKeys, 1.5);
  for (uint64_t k : keys) sequential.Insert(k);

  BloomFilter<TypeParam> merged(kKeys, 1.5);
  const size_t part = keys.size() / 3 + 1;
  for (size_t begin = 0; begin < keys.size(); begin += part) {
    BloomFilter<TypeParam> partial(kKeys, 1.5);  // same geometry
    partial.EnableInsertTracking();
    const size_t end = std::min(keys.size(), begin + part);
    for (size_t i = begin; i < end; ++i) partial.Insert(keys[i]);
    merged.MergeFrom(partial);
  }

  // Identical logical-key count (the journal replay reproduces the
  // sequential new-bit rule across partition boundaries) ...
  EXPECT_EQ(merged.NumInserted(), sequential.NumInserted());
  EXPECT_LT(merged.NumInserted(), kKeys);  // undersized: folds happened
  // ... and identical probe behavior (OR of partition bits == sequential
  // bits), membership and non-membership alike.
  for (uint64_t k : keys) EXPECT_TRUE(merged.MayContain(k));
  for (int i = 0; i < 20000; ++i) {
    const uint64_t h = rng.Next();
    EXPECT_EQ(merged.MayContain(h), sequential.MayContain(h));
  }
}

// ---- MergeFrom, kind-generic: the properties FillFilterParallel needs.

class FilterMergeTest : public ::testing::TestWithParam<FilterKind> {
 protected:
  /// Undersized (2 bits/key) so the Bloom kinds' bits overlap heavily
  /// across keys and partitions.
  FilterConfig Config() const {
    FilterConfig config;
    config.kind = GetParam();
    config.bloom_bits_per_key = 2.0;
    return config;
  }

  /// A partial as a parallel build makes it: the Bloom kinds share the
  /// whole build's geometry and journal their inserts.
  std::unique_ptr<BitvectorFilter> MakePartial(int64_t build_keys) const {
    auto partial = CreateFilter(Config(), build_keys);
    partial->EnableInsertTracking();
    return partial;
  }
};

/// Membership is a set union (or a bitwise OR), so the order the partials
/// merge in cannot change what the filter admits; merged in partition
/// order they also reproduce the sequential NumInserted.
TEST_P(FilterMergeTest, AnyMergeOrderAdmitsTheSequentialSet) {
  Rng rng(4711);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 4000; ++i) keys.push_back(rng.Next());
  // Duplicates that land in other partitions.
  for (int i = 0; i < 400; ++i) keys.push_back(keys[static_cast<size_t>(i)]);
  const auto n = static_cast<int64_t>(keys.size());

  auto sequential = CreateFilter(Config(), n);
  for (uint64_t k : keys) sequential->Insert(k);

  std::vector<std::unique_ptr<BitvectorFilter>> partials;
  const size_t part = keys.size() / 4 + 1;
  for (size_t begin = 0; begin < keys.size(); begin += part) {
    partials.push_back(MakePartial(n));
    const size_t end = std::min(keys.size(), begin + part);
    for (size_t i = begin; i < end; ++i) partials.back()->Insert(keys[i]);
  }
  auto forward = CreateFilter(Config(), n);
  for (const auto& p : partials) forward->MergeFrom(*p);
  auto reverse = CreateFilter(Config(), n);
  for (auto it = partials.rbegin(); it != partials.rend(); ++it) {
    reverse->MergeFrom(**it);
  }

  EXPECT_EQ(forward->NumInserted(), sequential->NumInserted());
  for (uint64_t k : keys) {
    ASSERT_TRUE(forward->MayContain(k));
    ASSERT_TRUE(reverse->MayContain(k));
  }
  for (int i = 0; i < 20000; ++i) {
    const uint64_t h = rng.Next();
    ASSERT_EQ(forward->MayContain(h), sequential->MayContain(h));
    ASSERT_EQ(reverse->MayContain(h), sequential->MayContain(h));
  }
}

/// A worker whose partition held no keys contributes an empty partial:
/// merging it changes neither membership nor the count, and merging a
/// full partial into an empty filter reproduces that partial.
TEST_P(FilterMergeTest, EmptyOperandIsAMergeIdentity) {
  constexpr int64_t kKeys = 1000;
  Rng rng(4712);
  std::vector<uint64_t> keys;
  for (int64_t i = 0; i < kKeys; ++i) keys.push_back(rng.Next());
  auto full = MakePartial(kKeys);
  for (uint64_t k : keys) full->Insert(k);

  auto target = CreateFilter(Config(), kKeys);
  target->MergeFrom(*full);
  EXPECT_EQ(target->NumInserted(), full->NumInserted());

  auto grown = CreateFilter(Config(), kKeys);
  grown->MergeFrom(*full);
  grown->MergeFrom(*MakePartial(kKeys));
  EXPECT_EQ(grown->NumInserted(), full->NumInserted());

  for (uint64_t k : keys) {
    ASSERT_TRUE(target->MayContain(k));
    ASSERT_TRUE(grown->MayContain(k));
  }
  for (int i = 0; i < 20000; ++i) {
    const uint64_t h = rng.Next();
    ASSERT_EQ(target->MayContain(h), full->MayContain(h));
    ASSERT_EQ(grown->MayContain(h), full->MayContain(h));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FilterMergeTest,
    ::testing::Values(FilterKind::kExact, FilterKind::kBloom,
                      FilterKind::kBlockedBloom),
    [](const ::testing::TestParamInfo<FilterKind>& info) {
      return std::string(FilterKindName(info.param));
    });

}  // namespace
}  // namespace bqo
