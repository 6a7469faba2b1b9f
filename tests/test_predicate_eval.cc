// Packed predicate evaluation (src/expr/expr.h) against the naive
// row-at-a-time oracle of test_util.h, which shares no code with it.
//
//  * PredicateEvalProperty: randomized expression trees of depth <= 4 over
//    every ExprKind — NOT over AND/OR, IN lists with duplicates and empty
//    lists, string literals missing from the dictionary, MOD and
//    comparisons at int64 and double extremes — at row counts that straddle
//    word boundaries. Each selection must equal the oracle bit for bit,
//    keep every bit past num_rows zero, and count exactly the oracle's
//    rows. Every case runs under both SIMD tiers.
//  * PredicateKernels: the range kernel's words are identical on the
//    scalar and AVX2 tiers for adversarial values and lengths.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/expr/predicate_kernels.h"
#include "test_util.h"

namespace bqo {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

const char* const kStrings[] = {"alpha", "beta", "gamma", "delta", "", "ab"};

/// Values that sit on the kernels' edges: the int64 limits (where the
/// range kernel's unsigned offset and the comparison lowering wrap) and
/// zero.
int64_t EdgeInt64(Rng* rng) {
  static const int64_t kEdges[] = {kMin, kMin + 1, kMax, kMax - 1,
                                   0,    -1,       1};
  if (rng->Uniform(3) == 0) {
    return static_cast<int64_t>(rng->Next());  // anywhere in int64
  }
  return kEdges[rng->Uniform(std::size(kEdges))];
}

double EdgeDouble(Rng* rng) {
  static const double kEdges[] = {std::nan(""),
                                  -0.0,
                                  0.0,
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  1.5};
  if (rng->Uniform(2) == 0) return kEdges[rng->Uniform(std::size(kEdges))];
  return static_cast<double>(rng->UniformRange(-8, 8)) / 2.0;
}

/// Columns: x small int64 (many ties, negatives), k int64 at the edges, s
/// dictionary strings, d doubles with NaN, signed zeros and infinities.
std::unique_ptr<Table> MakeTable(int64_t rows, Rng* rng) {
  auto table = std::make_unique<Table>(
      "t", std::vector<FieldDef>{{"x", DataType::kInt64},
                                 {"k", DataType::kInt64},
                                 {"s", DataType::kString},
                                 {"d", DataType::kDouble}});
  for (int64_t r = 0; r < rows; ++r) {
    BQO_CHECK(table
                  ->AppendRow({Value(rng->UniformRange(-40, 40)),
                               Value(EdgeInt64(rng)),
                               Value(std::string(kStrings[rng->Uniform(
                                   std::size(kStrings))])),
                               Value(EdgeDouble(rng))})
                  .ok());
  }
  return table;
}

CompareOp RandomOp(Rng* rng) {
  return static_cast<CompareOp>(rng->Uniform(6));
}

ExprPtr RandomLeaf(Rng* rng) {
  const char* int_col = rng->Uniform(2) == 0 ? "x" : "k";
  const auto int_value = [&] {
    return int_col[0] == 'x' ? rng->UniformRange(-45, 45) : EdgeInt64(rng);
  };
  switch (rng->Uniform(9)) {
    case 0:
    case 1:
      return Compare(int_col, RandomOp(rng), Value(int_value()));
    case 2:
      return Compare("d", RandomOp(rng), Value(EdgeDouble(rng)));
    case 3: {
      // "missing" is absent from the dictionary.
      const std::string lit =
          rng->Uniform(4) == 0
              ? std::string("missing")
              : std::string(kStrings[rng->Uniform(std::size(kStrings))]);
      return Compare("s", rng->Uniform(2) == 0 ? CompareOp::kEq
                                               : CompareOp::kNe,
                     Value(lit));
    }
    case 4:
      return Between(int_col, int_value(), int_value());  // maybe lo > hi
    case 5: {
      std::vector<int64_t> values;
      const uint64_t len = rng->Uniform(6);  // 0 = the empty list
      for (uint64_t i = 0; i < len; ++i) values.push_back(int_value());
      if (len > 1) values.push_back(values[0]);  // a duplicate
      return In(int_col, std::move(values));
    }
    case 6: {
      static const char* const kNeedles[] = {"a", "ph", "zz", "", "ta"};
      return LikeContains("s", kNeedles[rng->Uniform(std::size(kNeedles))]);
    }
    case 7: {
      static const int64_t kDivisors[] = {1, 3, 7, 1000, kMax};
      const int64_t divisor = kDivisors[rng->Uniform(std::size(kDivisors))];
      const int64_t bound =
          rng->Uniform(4) == 0 ? EdgeInt64(rng) : rng->UniformRange(-5, 5);
      return ModLess(int_col, divisor, bound);
    }
    default:
      return TruePred();
  }
}

ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth >= 4 || rng->Uniform(3) == 0) return RandomLeaf(rng);
  switch (rng->Uniform(3)) {
    case 0:
    case 1: {
      std::vector<ExprPtr> children;
      const uint64_t n = 1 + rng->Uniform(3);
      for (uint64_t i = 0; i < n; ++i) {
        children.push_back(RandomExpr(rng, depth + 1));
      }
      return rng->Uniform(2) == 0 ? And(std::move(children))
                                  : Or(std::move(children));
    }
    default:
      return Not(RandomExpr(rng, depth + 1));
  }
}

/// The fixed cases every row count checks before the random ones: NOT
/// over AND/OR (the usual way to set tail bits), and the kernel edges.
std::vector<ExprPtr> FixedCases() {
  return {
      TruePred(),
      Not(TruePred()),
      Not(And({Lt("x", 0), Ge("x", -10)})),
      Not(Or({Eq("x", 3), In("x", {})})),
      Not(Not(Or({Between("x", 5, -5), EqString("s", "missing")}))),
      Compare("s", CompareOp::kNe, Value(std::string("missing"))),
      In("x", {7, 7, -3, 7}),
      ModLess("k", 7, 3),
      ModLess("k", kMax, 0),
      Lt("k", kMin),
      Gt("k", kMax),
      Compare("d", CompareOp::kNe, Value(std::nan(""))),
      Compare("d", CompareOp::kEq, Value(-0.0)),
  };
}

void ExpectMatchesOracle(const Table& table, const ExprPtr& expr) {
  ASSERT_TRUE(ValidatePredicate(table, expr).ok()) << expr->ToString();
  const SelectionBits bits = EvaluateSelection(table, expr);
  const std::vector<uint8_t> naive = testing::NaiveSelection(table, expr);
  ASSERT_EQ(bits.num_rows(), table.num_rows());
  ASSERT_EQ(bits.num_words(), SelectionBits::WordCount(table.num_rows()));
  SelectionBits expected(table.num_rows());
  int64_t count = 0;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (naive[static_cast<size_t>(r)] != 0) {
      expected.mutable_words()[r >> 6] |= uint64_t{1} << (r & 63);
      ++count;
    }
  }
  // Word equality covers the tail: the expected words have none set.
  EXPECT_TRUE(bits == expected) << expr->ToString() << " over "
                                << table.num_rows() << " rows";
  EXPECT_EQ(bits.CountOnes(), count) << expr->ToString();
}

class PredicateEvalProperty
    : public ::testing::TestWithParam<std::tuple<SimdTier, int64_t>> {};

TEST_P(PredicateEvalProperty, MatchesNaiveOracle) {
  const auto [tier, rows] = GetParam();
  ScopedSimdTier scoped(tier);
  Rng rng(0x9e3779b9ULL + static_cast<uint64_t>(rows));
  const std::unique_ptr<Table> table = MakeTable(rows, &rng);
  for (const ExprPtr& expr : FixedCases()) {
    ExpectMatchesOracle(*table, expr);
  }
  const int num_random = rows > 1000 ? 60 : 300;
  for (int i = 0; i < num_random; ++i) {
    ExpectMatchesOracle(*table, RandomExpr(&rng, 0));
    if (::testing::Test::HasFailure()) return;  // one report is enough
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndSizes, PredicateEvalProperty,
    ::testing::Combine(::testing::Values(SimdTier::kScalar, SimdTier::kAvx2),
                       ::testing::Values(int64_t{0}, int64_t{1}, int64_t{63},
                                         int64_t{64}, int64_t{65},
                                         int64_t{4097})),
    [](const ::testing::TestParamInfo<std::tuple<SimdTier, int64_t>>& info) {
      return std::string(SimdTierName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

/// Runs `kernel(words)` under each tier and checks the words agree.
template <typename Kernel>
void ExpectTiersAgree(int64_t n, Kernel&& kernel, const std::string& what) {
  std::vector<uint64_t> scalar(SelectionBits::WordCount(n), ~uint64_t{0});
  std::vector<uint64_t> avx2(SelectionBits::WordCount(n), ~uint64_t{0});
  {
    ScopedSimdTier tier(SimdTier::kScalar);
    kernel(scalar.data());
  }
  {
    ScopedSimdTier tier(SimdTier::kAvx2);
    kernel(avx2.data());
  }
  EXPECT_EQ(scalar, avx2) << what << " n=" << n;
  if (n % 64 != 0 && !scalar.empty()) {
    EXPECT_EQ(scalar.back() >> (n % 64), 0u) << what << " tail, n=" << n;
  }
}

TEST(PredicateKernels, TiersAgreeOnAdversarialInputs) {
  if (!CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  Rng rng(77);
  for (int64_t n : {0, 1, 3, 63, 64, 65, 127, 128, 1000}) {
    std::vector<int64_t> ints(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      ints[static_cast<size_t>(i)] = EdgeInt64(&rng);
    }
    for (int trial = 0; trial < 20; ++trial) {
      const int64_t lo = EdgeInt64(&rng);
      const int64_t hi = EdgeInt64(&rng);
      const bool negate = rng.Uniform(2) == 0;
      ExpectTiersAgree(
          n,
          [&](uint64_t* w) {
            RangeInt64Kernel(ints.data(), n, lo, hi, negate, w);
          },
          "range");
    }
  }
}

}  // namespace
}  // namespace bqo
