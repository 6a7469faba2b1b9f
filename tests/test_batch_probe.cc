// Batch/scalar parity for the vectorized probe pipeline.
//
// The contract (bitvector_filter.h) is that MayContainBatch returns a pass
// set bit-identical to calling MayContain per selected index — prefetching
// must never change bits. These tests check that for both filter kinds,
// and for the Bloom filter at its minimum budget, over random key sets (identity and sparse selections), that exact filters
// keep zero false negatives through the batched path, and that end-to-end
// ExecutePlan checksums are invariant to the vectorized scan/join rewrite
// (filters on vs off, and across filter kinds).
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/filter/bitvector_filter.h"
#include "src/filter/bloom_filter.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeChainDb;
using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;

std::vector<uint64_t> RandomHashes(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(static_cast<size_t>(n));
  for (auto& h : out) h = rng.Next();
  return out;
}

/// Scalar reference: the surviving indices of `sel_in` per MayContain.
std::vector<uint16_t> ScalarPassSet(const BitvectorFilter& filter,
                                    const std::vector<uint64_t>& hashes,
                                    const std::vector<uint16_t>& sel_in) {
  std::vector<uint16_t> out;
  for (uint16_t s : sel_in) {
    if (filter.MayContain(hashes[s])) out.push_back(s);
  }
  return out;
}

/// A filter configuration under test. `blockedSaturated` runs the Bloom
/// filter at its minimum budget (1 bit/key), where most misses pass: the
/// batched kernel then keeps nearly every lane, the opposite regime to the
/// default budget's mostly-rejecting batches.
struct ProbeCase {
  const char* name;
  FilterKind kind;
  double bits_per_key;
};

void PrintTo(const ProbeCase& c, std::ostream* os) { *os << c.name; }

class BatchProbeParityTest : public ::testing::TestWithParam<ProbeCase> {
 protected:
  FilterConfig Config() const {
    FilterConfig config;
    config.kind = GetParam().kind;
    config.bloom_bits_per_key = GetParam().bits_per_key;
    return config;
  }
};

TEST_P(BatchProbeParityTest, IdentitySelectionMatchesScalar) {
  const FilterConfig config = Config();
  constexpr int kInserted = 5000;
  auto filter = CreateFilter(config, kInserted);
  const auto keys = RandomHashes(kInserted, 11);
  for (uint64_t k : keys) filter->Insert(k);

  Rng rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    // Mixed stream: ~half hits, half random (mostly misses).
    std::vector<uint64_t> probes(kBatchSize);
    for (auto& h : probes) {
      h = rng.Bernoulli(0.5) ? keys[rng.Uniform(keys.size())] : rng.Next();
    }
    std::vector<uint16_t> sel(kBatchSize);
    for (int i = 0; i < kBatchSize; ++i) sel[i] = static_cast<uint16_t>(i);
    const auto expected = ScalarPassSet(*filter, probes, sel);

    const int m = filter->MayContainBatch(probes.data(), sel.data(),
                                          kBatchSize);
    ASSERT_EQ(static_cast<size_t>(m), expected.size()) << "trial " << trial;
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(sel[static_cast<size_t>(j)], expected[static_cast<size_t>(j)]);
    }
  }
}

TEST_P(BatchProbeParityTest, SparseSelectionMatchesScalar) {
  const FilterConfig config = Config();
  auto filter = CreateFilter(config, 2000);
  const auto keys = RandomHashes(2000, 21);
  for (uint64_t k : keys) filter->Insert(k);

  Rng rng(22);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<uint64_t> probes(kBatchSize);
    for (auto& h : probes) {
      h = rng.Bernoulli(0.3) ? keys[rng.Uniform(keys.size())] : rng.Next();
    }
    // Sparse ascending selection, as a later filter in the chain sees it.
    std::vector<uint16_t> sel;
    for (int i = 0; i < kBatchSize; ++i) {
      if (rng.Bernoulli(0.4)) sel.push_back(static_cast<uint16_t>(i));
    }
    const auto expected = ScalarPassSet(*filter, probes, sel);

    std::vector<uint16_t> got = sel;
    const int m = filter->MayContainBatch(probes.data(), got.data(),
                                          static_cast<int>(got.size()));
    ASSERT_EQ(static_cast<size_t>(m), expected.size()) << "trial " << trial;
    for (int j = 0; j < m; ++j) {
      EXPECT_EQ(got[static_cast<size_t>(j)], expected[static_cast<size_t>(j)]);
    }
  }
}

TEST_P(BatchProbeParityTest, BatchedProbeHasNoFalseNegatives) {
  const FilterConfig config = Config();
  constexpr int kInserted = 4000;
  auto filter = CreateFilter(config, kInserted);
  const auto keys = RandomHashes(kInserted, 31);
  for (uint64_t k : keys) filter->Insert(k);

  std::vector<uint16_t> sel(kBatchSize);
  for (size_t base = 0; base < keys.size(); base += kBatchSize) {
    const int n = static_cast<int>(
        std::min<size_t>(kBatchSize, keys.size() - base));
    for (int i = 0; i < n; ++i) sel[i] = static_cast<uint16_t>(i);
    const int m = filter->MayContainBatch(keys.data() + base, sel.data(), n);
    EXPECT_EQ(m, n);  // every inserted key must survive, for every kind
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BatchProbeParityTest,
                         ::testing::Values(
                             ProbeCase{"exact", FilterKind::kExact, 10.0},
                             ProbeCase{"blocked", FilterKind::kBlockedBloom,
                                       10.0},
                             ProbeCase{"blockedSaturated",
                                       FilterKind::kBlockedBloom, 1.0}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

/// FilterMayContainBatch, the executor's devirtualized probe, leaves the
/// same selection as the virtual MayContainBatch for either kind.
TEST(BatchProbeDispatch, DevirtualizedProbeMatchesVirtualCall) {
  const auto keys = RandomHashes(3000, 41);
  Rng rng(42);
  std::vector<uint64_t> probes(kBatchSize);
  for (auto& h : probes) {
    h = rng.Bernoulli(0.5) ? keys[rng.Uniform(keys.size())] : rng.Next();
  }
  for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
    FilterConfig config;
    config.kind = kind;
    auto filter = CreateFilter(config, 3000);
    for (uint64_t k : keys) filter->Insert(k);

    std::vector<uint16_t> direct(kBatchSize), dispatched(kBatchSize);
    for (int i = 0; i < kBatchSize; ++i) {
      direct[i] = dispatched[i] = static_cast<uint16_t>(i);
    }
    const int m = filter->MayContainBatch(probes.data(), direct.data(),
                                          kBatchSize);
    const int d = FilterMayContainBatch(filter.get(), probes.data(),
                                        dispatched.data(), kBatchSize);
    ASSERT_EQ(d, m) << FilterKindName(kind);
    direct.resize(static_cast<size_t>(m));
    dispatched.resize(static_cast<size_t>(d));
    EXPECT_EQ(dispatched, direct) << FilterKindName(kind);
    EXPECT_GT(m, kBatchSize / 3) << FilterKindName(kind);  // hits pass
    EXPECT_LT(m, kBatchSize) << FilterKindName(kind);      // misses drop
  }
}

TEST(BatchHashParity, HashColumnMatchesHashComposite) {
  Rng rng(5);
  std::vector<int64_t> values(kBatchSize);
  for (auto& v : values) v = static_cast<int64_t>(rng.Next());
  std::vector<uint64_t> batched(kBatchSize);
  HashColumn(values.data(), kBatchSize, batched.data());
  for (int i = 0; i < kBatchSize; ++i) {
    EXPECT_EQ(batched[static_cast<size_t>(i)], HashComposite(&values[i], 1));
  }
}

TEST(BatchHashParity, HashCompositeBatchMatchesHashComposite) {
  Rng rng(6);
  for (size_t width : {2, 3, 8}) {
    std::vector<std::vector<int64_t>> cols(width);
    std::vector<const int64_t*> col_ptrs;
    for (auto& col : cols) {
      col.resize(kBatchSize);
      for (auto& v : col) v = static_cast<int64_t>(rng.Next());
      col_ptrs.push_back(col.data());
    }
    std::vector<uint64_t> batched(kBatchSize);
    HashCompositeBatch(col_ptrs.data(), width, kBatchSize, batched.data());
    for (int i = 0; i < kBatchSize; ++i) {
      int64_t key[8];
      for (size_t c = 0; c < width; ++c) key[c] = cols[c][static_cast<size_t>(i)];
      EXPECT_EQ(batched[static_cast<size_t>(i)], HashComposite(key, width));
    }
  }
}

/// End-to-end: the vectorized scan/probe pipeline must not change results.
/// Checksums are compared across filters-off and both filter kinds,
/// on star / chain / snowflake shapes (the seed workloads' building blocks).
TEST(BatchExecParity, ChecksumInvariantAcrossFilterKinds) {
  struct Shape {
    const char* name;
    std::unique_ptr<testing::TestDb> db;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"star", MakeStarDb(3, 6000, 200, {0.3, 0.7, 0.1}, 91,
                                       /*zipf=*/0.7)});
  shapes.push_back({"chain", MakeChainDb(4, 8000, 0.3, {-1, 0.5, -1, 0.4}, 92)});
  shapes.push_back({"snowflake",
                    MakeSnowflakeDb({2, 1}, 5000, 300, 0.5, {0.4, 0.6}, 93)});

  for (auto& shape : shapes) {
    auto graph = shape.db->Graph();
    ASSERT_TRUE(graph.ok()) << shape.name;
    std::vector<int> order(graph.value().num_relations());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    Plan plan = BuildRightDeepPlan(graph.value(), order);
    PushDownBitvectors(&plan);

    ExecutionOptions off;
    off.use_bitvectors = false;
    const QueryMetrics base = ExecutePlan(plan, off);

    for (FilterKind kind : {FilterKind::kExact, FilterKind::kBlockedBloom}) {
      ExecutionOptions options;
      options.filter_config.kind = kind;
      const QueryMetrics m = ExecutePlan(plan, options);
      EXPECT_EQ(m.result_checksum, base.result_checksum)
          << shape.name << " " << FilterKindName(kind);
      EXPECT_EQ(m.result_rows, base.result_rows)
          << shape.name << " " << FilterKindName(kind);
      for (const FilterStats& fs : m.filters) {
        if (fs.created) EXPECT_LE(fs.passed, fs.probed);
      }
    }
  }
}

/// Grouped SUM exercises the chunked group emission added with the
/// flat-storage Batch (more groups than kBatchSize must span batches).
TEST(BatchExecParity, GroupedAggregateSpansManyBatches) {
  auto db = MakeStarDb(1, 20000, 3000, {-1.0}, 94);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);
  ExecutionOptions options;
  options.agg.kind = AggKind::kCountStar;
  options.agg.has_group_by = true;
  options.agg.group_column = BoundColumn{1, "d0_id"};
  const QueryMetrics m = ExecutePlan(plan, options);
  // One group per distinct fact FK value; with 20000 facts over 3000 keys
  // that is well past kBatchSize, so emission must chunk across batches.
  const Table* fact = db->catalog.GetTable("f").value();
  const int fk_col = fact->ColumnIndex("d0_fk");
  std::unordered_set<int64_t> distinct;
  for (int64_t r = 0; r < fact->num_rows(); ++r) {
    distinct.insert(fact->column(fk_col).GetInt64(r));
  }
  EXPECT_EQ(m.result_rows, static_cast<int64_t>(distinct.size()));
  EXPECT_GT(m.result_rows, static_cast<int64_t>(kBatchSize));
}

}  // namespace
}  // namespace bqo
