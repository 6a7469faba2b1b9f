// Unit tests for src/expr: every predicate kind plus boolean combinators,
// each evaluation checked row for row against the naive evaluator in
// test_util.h, the packed SelectionBits layout, and ValidatePredicate's
// rejection of every malformed leaf.
#include <gtest/gtest.h>

#include "src/expr/expr.h"
#include "test_util.h"

namespace bqo {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t", std::vector<FieldDef>{{"x", DataType::kInt64},
                                   {"s", DataType::kString},
                                   {"d", DataType::kDouble}});
    const char* strs[] = {"orange", "gear", "title", "gem", "apple"};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(table_
                      ->AppendRow({Value(int64_t{i * 10}),
                                   Value(std::string(strs[i])),
                                   Value(static_cast<double>(i) + 0.5)})
                      .ok());
    }
  }

  /// Selected rows of `e`, after checking the packed evaluation against
  /// the naive one row for row and CountOnes against the row count.
  std::vector<uint32_t> Rows(const ExprPtr& e) {
    EXPECT_TRUE(ValidatePredicate(*table_, e).ok());
    const SelectionBits bits = EvaluateSelection(*table_, e);
    const std::vector<uint8_t> naive = testing::NaiveSelection(*table_, e);
    EXPECT_EQ(bits.num_rows(), table_->num_rows());
    std::vector<uint32_t> rows;
    for (int64_t r = 0; r < bits.num_rows(); ++r) {
      EXPECT_EQ(bits.Test(r), naive[static_cast<size_t>(r)] != 0)
          << e->ToString() << " row " << r;
      if (bits.Test(r)) rows.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(bits.CountOnes(), static_cast<int64_t>(rows.size()));
    return rows;
  }

  std::unique_ptr<Table> table_;
};

TEST_F(ExprTest, NullAndTrueSelectAll) {
  EXPECT_EQ(EvaluateSelection(*table_, nullptr).CountOnes(), 5);
  EXPECT_EQ(Rows(TruePred()).size(), 5u);
  EXPECT_TRUE(SelectsAllRows(nullptr));
  EXPECT_TRUE(SelectsAllRows(TruePred()));
  EXPECT_FALSE(SelectsAllRows(Eq("x", 0)));
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(Rows(Eq("x", 20)), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(Lt("x", 20)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Rows(Le("x", 20)), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(Rows(Gt("x", 20)), (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(Rows(Ge("x", 20)), (std::vector<uint32_t>{2, 3, 4}));
  EXPECT_EQ(Rows(Compare("x", CompareOp::kNe, Value(int64_t{20}))).size(),
            4u);
}

TEST_F(ExprTest, ComparisonsAtInt64Limits) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(Rows(Lt("x", kMin)).empty());
  EXPECT_TRUE(Rows(Gt("x", kMax)).empty());
  EXPECT_EQ(Rows(Ge("x", kMin)).size(), 5u);
  EXPECT_EQ(Rows(Le("x", kMax)).size(), 5u);
  EXPECT_EQ(Rows(Between("x", kMin, kMax)).size(), 5u);
}

TEST_F(ExprTest, Doublecompare) {
  EXPECT_EQ(Rows(Compare("d", CompareOp::kLt, Value(2.0))),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Rows(Compare("d", CompareOp::kNe, Value(2.5))),
            (std::vector<uint32_t>{0, 1, 3, 4}));
}

TEST_F(ExprTest, StringEquality) {
  EXPECT_EQ(Rows(EqString("s", "gear")), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(Rows(EqString("s", "absent")).empty());
  EXPECT_EQ(Rows(Compare("s", CompareOp::kNe, Value(std::string("absent"))))
                .size(),
            5u);
}

TEST_F(ExprTest, BetweenInclusive) {
  EXPECT_EQ(Rows(Between("x", 10, 30)), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(Rows(Between("x", 30, 10)).empty());
}

TEST_F(ExprTest, InList) {
  EXPECT_EQ(Rows(In("x", {0, 40, 999})), (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(Rows(In("x", {40, 0, 40, 0})), (std::vector<uint32_t>{0, 4}));
  EXPECT_TRUE(Rows(In("x", {})).empty());
}

TEST_F(ExprTest, LikeContains) {
  // "ge" is a substring of orange (o-r-a-n-g-e), gear and gem.
  EXPECT_EQ(Rows(LikeContains("s", "ge")), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(Rows(LikeContains("s", "title")), (std::vector<uint32_t>{2}));
}

TEST_F(ExprTest, ModLess) {
  // x in {0,10,20,30,40}; x % 3: 0,1,2,0,1 -> < 1 selects {0, 30}.
  EXPECT_EQ(Rows(ModLess("x", 3, 1)), (std::vector<uint32_t>{0, 3}));
}

TEST_F(ExprTest, BooleanCombinators) {
  EXPECT_EQ(Rows(And({Ge("x", 10), Lt("x", 40)})),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(Rows(Or({Eq("x", 0), Eq("x", 40)})),
            (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(Rows(Not(Lt("x", 30))), (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(Rows(And({Or({Eq("x", 0), Eq("x", 10)}), Not(Eq("x", 0))})),
            (std::vector<uint32_t>{1}));
}

TEST_F(ExprTest, SelectionBitsLayout) {
  // 5 rows: one word, rows 1 and 3 set, nothing past row 4 even under NOT.
  const SelectionBits bits =
      EvaluateSelection(*table_, Not(In("x", {0, 20, 40})));
  ASSERT_EQ(bits.num_words(), 1u);
  EXPECT_EQ(bits.words()[0], uint64_t{0b01010});
  EXPECT_EQ(SelectionBits::WordCount(0), 0u);
  EXPECT_EQ(SelectionBits::WordCount(64), 1u);
  EXPECT_EQ(SelectionBits::WordCount(65), 2u);
  EXPECT_EQ(SelectionBits(65).CountOnes(), 0);
}

TEST_F(ExprTest, ValidationRejectsMalformedLeaves) {
  const auto invalid = [&](const ExprPtr& e) {
    const Status status = ValidatePredicate(*table_, e);
    EXPECT_TRUE(status.IsInvalidArgument()) << e->ToString();
  };
  invalid(Eq("missing", 1));
  invalid(Compare("x", CompareOp::kLt, Value(2.5)));   // double on int64
  invalid(Compare("d", CompareOp::kLt, Value(int64_t{2})));  // int on double
  invalid(Compare("x", CompareOp::kEq, Value(std::string("a"))));
  invalid(Compare("s", CompareOp::kEq, Value(int64_t{1})));
  invalid(Compare("s", CompareOp::kLt, Value(std::string("gear"))));
  invalid(Between("s", 1, 2));
  invalid(Between("d", 1, 2));
  invalid(In("d", {1}));
  invalid(ModLess("s", 3, 1));
  invalid(LikeContains("x", "1"));
  invalid(And({}));
  invalid(And({Eq("x", 0), Eq("missing", 0)}));
  invalid(Not(Compare("x", CompareOp::kLt, Value(2.5))));
  EXPECT_TRUE(ValidatePredicate(*table_, nullptr).ok());
  EXPECT_TRUE(
      ValidatePredicate(*table_, And({Eq("x", 0), LikeContains("s", "g")}))
          .ok());
}

TEST_F(ExprTest, ToStringIsReadable) {
  EXPECT_EQ(Eq("x", 5)->ToString(), "x = 5");
  EXPECT_EQ(Between("x", 1, 2)->ToString(), "x BETWEEN 1 AND 2");
  EXPECT_EQ(LikeContains("s", "ge")->ToString(), "s LIKE '%ge%'");
  EXPECT_EQ(Not(Eq("x", 1))->ToString(), "NOT (x = 1)");
}

}  // namespace
}  // namespace bqo
