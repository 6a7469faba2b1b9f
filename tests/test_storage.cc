// Unit tests for src/storage: columns, dictionaries, tables, catalog.
#include <gtest/gtest.h>

#include "src/storage/catalog.h"

namespace bqo {
namespace {

TEST(StringDictionary, RoundTrip) {
  StringDictionary dict;
  const int32_t a = dict.GetOrInsert("apple");
  const int32_t b = dict.GetOrInsert("banana");
  EXPECT_EQ(dict.GetOrInsert("apple"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.GetString(a), "apple");
  EXPECT_EQ(dict.Lookup("banana"), b);
  EXPECT_EQ(dict.Lookup("cherry"), -1);
  EXPECT_EQ(dict.size(), 2);
}

TEST(StringDictionary, CodesContaining) {
  StringDictionary dict;
  dict.GetOrInsert("orange");
  dict.GetOrInsert("gear");
  dict.GetOrInsert("title");
  const auto codes = dict.CodesContaining("ge");
  EXPECT_EQ(codes.size(), 2u);  // orange, gear
}

TEST(Column, Int64Basics) {
  Column col("x", DataType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(5);
  col.AppendInt64(7);
  EXPECT_EQ(col.size(), 3);
  EXPECT_EQ(col.GetInt64(2), 7);
  EXPECT_EQ(col.CountDistinct(), 2);
  // An append after a count must not leave the memoized count stale.
  col.AppendInt64(9);
  EXPECT_EQ(col.CountDistinct(), 3);
}

TEST(Column, StringStoredAsCodes) {
  Column col("s", DataType::kString);
  col.AppendString("aa");
  col.AppendString("bb");
  col.AppendString("aa");
  EXPECT_EQ(col.GetInt64(0), col.GetInt64(2));  // same dict code
  EXPECT_EQ(col.GetStringAt(1), "bb");
  EXPECT_EQ(col.CountDistinct(), 2);
  col.AppendString("cc");
  EXPECT_EQ(col.CountDistinct(), 3);
}

TEST(Column, DoubleDistinct) {
  Column col("d", DataType::kDouble);
  col.AppendDouble(1.5);
  col.AppendDouble(1.5);
  col.AppendDouble(2.5);
  EXPECT_EQ(col.CountDistinct(), 2);
  col.AppendDouble(3.5);
  EXPECT_EQ(col.CountDistinct(), 3);
}

TEST(Table, AppendRowAndLookup) {
  Table t("t", {{"id", DataType::kInt64}, {"name", DataType::kString}});
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(std::string("x"))}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value(std::string("y"))}).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.ColumnIndex("name"), 1);
  EXPECT_EQ(t.ColumnIndex("zzz"), -1);
  auto col = t.GetColumn("id");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.value()->GetInt64(1), 2);
}

TEST(Table, AppendRowTypeMismatch) {
  Table t("t", {{"id", DataType::kInt64}});
  EXPECT_FALSE(t.AppendRow({Value(std::string("oops"))}).ok());
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
}

TEST(Catalog, CreateAndKeys) {
  Catalog catalog;
  auto t = catalog.CreateTable(
      "dim", {{"dim_id", DataType::kInt64}, {"attr", DataType::kInt64}});
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(catalog.CreateTable("dim", {}).ok());  // duplicate
  ASSERT_TRUE(catalog.DeclarePrimaryKey("dim", "dim_id").ok());
  EXPECT_TRUE(catalog.IsUniqueKey("dim", "dim_id"));
  EXPECT_FALSE(catalog.IsUniqueKey("dim", "attr"));
  EXPECT_FALSE(catalog.DeclarePrimaryKey("dim", "nope").ok());
  EXPECT_FALSE(catalog.DeclarePrimaryKey("nope", "x").ok());
}

TEST(Catalog, ForeignKeys) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("d", {{"d_id", DataType::kInt64}}).ok());
  ASSERT_TRUE(catalog.CreateTable("f", {{"d_fk", DataType::kInt64}}).ok());
  ASSERT_TRUE(
      catalog.DeclareForeignKey(ForeignKeyDef{"f", "d_fk", "d", "d_id"}).ok());
  EXPECT_EQ(catalog.foreign_keys().size(), 1u);
  EXPECT_FALSE(
      catalog.DeclareForeignKey(ForeignKeyDef{"f", "x", "d", "d_id"}).ok());
}

}  // namespace
}  // namespace bqo
