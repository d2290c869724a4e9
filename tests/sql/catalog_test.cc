#include "sql/catalog.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rdfrel::sql {
namespace {

Schema PeopleSchema() {
  return Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  auto t = cat.CreateTable("People", PeopleSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(cat.HasTable("people"));  // case-insensitive
  EXPECT_TRUE(cat.GetTable("PEOPLE").ok());
  EXPECT_TRUE(cat.CreateTable("people", PeopleSchema())
                  .status()
                  .IsAlreadyExists());
  ASSERT_TRUE(cat.DropTable("People").ok());
  EXPECT_FALSE(cat.HasTable("people"));
  EXPECT_TRUE(cat.DropTable("people").IsNotFound());
}

TEST(CatalogTest, TableNamesListed) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("b", PeopleSchema()).ok());
  ASSERT_TRUE(cat.CreateTable("a", PeopleSchema()).ok());
  auto names = cat.TableNames();
  ASSERT_EQ(names.size(), 2u);
}

TEST(TableTest, IndexMaintainedOnInsert) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  auto rid = t.Insert({Value::Int(1), Value::Str("ann")});
  ASSERT_TRUE(rid.ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  ASSERT_NE(idx, nullptr);
  auto rids = idx->Lookup(Value::Int(1));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], *rid);
}

TEST(TableTest, IndexBackfillsExistingRows) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("b")}).ok());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup(Value::Int(2)).size(), 1u);
}

TEST(TableTest, IndexFollowsUpdateAndDelete) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  auto rid = t.Insert({Value::Int(1), Value::Str("ann")});
  ASSERT_TRUE(rid.ok());
  auto rid2 = t.Update(*rid, {Value::Int(99), Value::Str("ann")});
  ASSERT_TRUE(rid2.ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  EXPECT_TRUE(idx->Lookup(Value::Int(1)).empty());
  EXPECT_EQ(idx->Lookup(Value::Int(99)).size(), 1u);
  ASSERT_TRUE(t.Delete(*rid2).ok());
  EXPECT_TRUE(idx->Lookup(Value::Int(99)).empty());
}

/// Postings of \p key in index order.
std::vector<RowId> Postings(const IndexInfo& idx, const Value& key) {
  std::span<const RowId> rids = idx.Lookup(key);
  return std::vector<RowId>(rids.begin(), rids.end());
}

/// Sorted postings of \p key, for exact comparison against a model.
std::vector<RowId> SortedPostings(const IndexInfo& idx, const Value& key) {
  std::vector<RowId> rids = Postings(idx, key);
  std::sort(rids.begin(), rids.end());
  return rids;
}

/// Runs the postings tests with the index on an int64 column and on a
/// string column, so both key encodings are hashed and compared.
class IndexPostingsTest : public ::testing::TestWithParam<ValueType> {
 protected:
  bool IntKeys() const { return GetParam() == ValueType::kInt64; }
  /// The indexed column and the other one.
  const char* KeyColumn() const { return IntKeys() ? "id" : "name"; }
  const char* OtherColumn() const { return IntKeys() ? "name" : "id"; }
  Value Key(int n) const {
    return IntKeys() ? Value::Int(n) : Value::Str("k" + std::to_string(n));
  }
  Value Other(int n) const {
    return IntKeys() ? Value::Str("p" + std::to_string(n)) : Value::Int(n);
  }
  /// A row with key \p key and other-column value \p other.
  std::vector<Value> Row(int key, int other) const {
    return IntKeys() ? std::vector<Value>{Key(key), Other(other)}
                     : std::vector<Value>{Other(other), Key(key)};
  }
};

TEST_P(IndexPostingsTest, HotKeyPostingsStayExact) {
  // Thousands of rows under one key: the table posts each fresh rid once,
  // in insertion order, without rescanning the list.
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_key", KeyColumn()).ok());
  std::vector<RowId> inserted;
  for (int i = 0; i < 5000; ++i) {
    auto rid = t.Insert(Row(7, i));
    ASSERT_TRUE(rid.ok());
    inserted.push_back(*rid);
  }
  const IndexInfo* idx = t.FindIndexOn(KeyColumn());
  EXPECT_EQ(Postings(*idx, Key(7)), inserted);
  // A backfilled index over the same rows agrees.
  ASSERT_TRUE(t.CreateIndex("idx_other", OtherColumn()).ok());
  EXPECT_EQ(Postings(*t.FindIndexOn(OtherColumn()), Other(4999)),
            std::vector<RowId>{inserted.back()});
}

TEST_P(IndexPostingsTest, DeleteReinsertKeepsPostingsExact) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_key", KeyColumn()).ok());
  const IndexInfo* idx = t.FindIndexOn(KeyColumn());
  std::vector<RowId> live;
  for (int i = 0; i < 20; ++i) {
    auto rid = t.Insert(Row(1, 0));
    ASSERT_TRUE(rid.ok());
    live.push_back(*rid);
  }
  // Delete every third row, then reinsert the same values.
  for (size_t i = 0; i < live.size(); i += 3) {
    ASSERT_TRUE(t.Delete(live[i]).ok());
  }
  std::vector<RowId> expected;
  for (size_t i = 0; i < live.size(); ++i) {
    if (i % 3 != 0) expected.push_back(live[i]);
  }
  for (size_t i = 0; i < live.size(); i += 3) {
    auto rid = t.Insert(Row(1, 0));
    ASSERT_TRUE(rid.ok());
    expected.push_back(*rid);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedPostings(*idx, Key(1)), expected);
  // An in-place update reuses its slot: same key, then a new key, then back.
  const RowId reused = expected.front();
  auto same = t.Update(reused, Row(1, 1));
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, reused);
  EXPECT_EQ(SortedPostings(*idx, Key(1)), expected);
  auto moved = t.Update(reused, Row(2, 1));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, reused);
  EXPECT_EQ(Postings(*idx, Key(2)), std::vector<RowId>{reused});
  auto back = t.Update(reused, Row(1, 1));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(idx->Lookup(Key(2)).empty());
  EXPECT_EQ(SortedPostings(*idx, Key(1)), expected);
  EXPECT_EQ(idx->index.size(), expected.size());
  EXPECT_EQ(idx->index.num_keys(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    KeyTypes, IndexPostingsTest,
    ::testing::Values(ValueType::kInt64, ValueType::kString),
    [](const ::testing::TestParamInfo<ValueType>& param_info) {
      return std::string(param_info.param == ValueType::kInt64 ? "Int64"
                                                               : "String");
    });

TEST(TableTest, NullKeysNotIndexed) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  ASSERT_TRUE(t.Insert({Value::Null(), Value::Str("ghost")}).ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  EXPECT_EQ(idx->Lookup(Value::Null()).size(), 0u);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx", "id").ok());
  EXPECT_TRUE(
      t.CreateIndex("idx", "name").IsAlreadyExists());
  EXPECT_TRUE(
      t.CreateIndex("idx2", "missing").IsNotFound());
}

}  // namespace
}  // namespace rdfrel::sql
