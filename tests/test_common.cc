// Unit tests for src/common: hashing, RNG/Zipf, Status/Result, strings.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/string_util.h"

namespace bqo {
namespace {

TEST(Hash, Mix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const uint64_t a = Mix64(0x123456789abcdefULL);
    const uint64_t b = Mix64(0x123456789abcdefULL ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / trials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Hash, CompositeOrderSensitive) {
  int64_t ab[] = {1, 2};
  int64_t ba[] = {2, 1};
  EXPECT_NE(HashComposite(ab, 2), HashComposite(ba, 2));
}

TEST(Hash, CompositeMatchesAcrossCallSites) {
  // The same value sequence must hash identically (filter build vs probe).
  int64_t v1[] = {42, -7, 99};
  int64_t v2[] = {42, -7, 99};
  EXPECT_EQ(HashComposite(v1, 3), HashComposite(v2, 3));
}

TEST(Hash, StringHashingDiffers) {
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng rng(5);
  ZipfGenerator zipf(100, 0.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  // max/min ratio should be mild for uniform.
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(*mx, *mn * 2);
}

TEST(Zipf, SkewConcentratesMass) {
  Rng rng(5);
  ZipfGenerator zipf(1000, 1.1);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // With theta=1.1 the top-10 of 1000 values should hold a large share.
  EXPECT_GT(head, n / 3);
}

TEST(Zipf, StaysInRange) {
  Rng rng(11);
  ZipfGenerator zipf(37, 0.9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 37u);
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing");
}

TEST(Status, ServingFailureCodes) {
  const Status cancelled = Status::Cancelled("client went away");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_FALSE(cancelled.IsDeadlineExceeded());
  EXPECT_EQ(cancelled.ToString(), "Cancelled: client went away");

  const Status deadline = Status::DeadlineExceeded("past due");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_FALSE(deadline.IsResourceExhausted());
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: past due");

  const Status shed = Status::ResourceExhausted("queue full");
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.IsResourceExhausted());
  EXPECT_FALSE(shed.IsCancelled());
  EXPECT_EQ(shed.ToString(), "ResourceExhausted: queue full");

  // Each predicate matches exactly its own code.
  EXPECT_FALSE(Status::Internal("x").IsCancelled());
  EXPECT_FALSE(Status::OK().IsCancelled());
  EXPECT_FALSE(Status::OK().IsDeadlineExceeded());
  EXPECT_FALSE(Status::OK().IsResourceExhausted());
}

TEST(Result, ValueAndStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad(Status::InvalidArgument("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtil, Contains) {
  EXPECT_TRUE(Contains("orange", "ge"));
  EXPECT_FALSE(Contains("title", "ge"));
  EXPECT_TRUE(Contains("abc", ""));
}

TEST(StringUtil, JoinAndFormat) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-42), "-42");
  EXPECT_EQ(FormatCount(999), "999");
}

TEST(StringUtil, ParseInt64AcceptsOnlyWholeIntegers) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("250"), 250);
  EXPECT_EQ(ParseInt64("-1"), -1);
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  // Words and partial numbers are not a silent 0 (std::atoll's answer).
  for (const char* bad : {"", "off", "unbounded", "12ms", " 5", "5 ", "+5",
                          "0x10", "1e3", "-", "9223372036854775808"}) {
    EXPECT_EQ(ParseInt64(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(StringUtil, ParseDoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_EQ(ParseDouble("0"), 0.0);
  EXPECT_EQ(ParseDouble("0.1"), 0.1);
  EXPECT_EQ(ParseDouble("-2.5"), -2.5);
  EXPECT_EQ(ParseDouble("1e3"), 1000.0);
  EXPECT_EQ(ParseDouble("1.5E-2"), 0.015);
  // Trailing junk is not silently dropped (std::atof's answer), and an
  // infinity or an overflow is not a number of rows to scale by.
  for (const char* bad : {"", "0.1x", "x0.1", " 2", "2 ", "+2", "off",
                          "inf", "-inf", "nan", "1e999", "-1e999", "0x10",
                          ".", "-"}) {
    EXPECT_EQ(ParseDouble(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace bqo
