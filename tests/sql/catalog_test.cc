#include "sql/catalog.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/hash_index.h"

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
  ASSERT_TRUE(t.CreateIndex("idx_id", "id", IndexKind::kBTree).ok());
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
  ASSERT_TRUE(t.CreateIndex("idx_id", "id", IndexKind::kHash).ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup(Value::Int(2)).size(), 1u);
}

TEST(TableTest, IndexFollowsUpdateAndDelete) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id", IndexKind::kBTree).ok());
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

/// Sorted postings of \p key, for exact comparison against a model.
std::vector<RowId> SortedPostings(const IndexInfo& idx, const Value& key) {
  std::vector<RowId> rids = idx.Lookup(key);
  std::sort(rids.begin(), rids.end());
  return rids;
}

class IndexKindTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(IndexKindTest, HotKeyPostingsStayExact) {
  // Thousands of rows under one key: the table posts each fresh rid once,
  // in insertion order, without rescanning the list.
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id", GetParam()).ok());
  std::vector<RowId> inserted;
  for (int i = 0; i < 5000; ++i) {
    auto rid = t.Insert({Value::Int(7), Value::Str("p" + std::to_string(i))});
    ASSERT_TRUE(rid.ok());
    inserted.push_back(*rid);
  }
  const IndexInfo* idx = t.FindIndexOn("id");
  EXPECT_EQ(idx->Lookup(Value::Int(7)), inserted);
  // A backfilled index over the same rows agrees.
  ASSERT_TRUE(t.CreateIndex("idx_name", "name", GetParam()).ok());
  EXPECT_EQ(t.FindIndexOn("name")->Lookup(Value::Str("p4999")),
            std::vector<RowId>{inserted.back()});
}

TEST_P(IndexKindTest, DeleteReinsertKeepsPostingsExact) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id", GetParam()).ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  std::vector<RowId> live;
  for (int i = 0; i < 20; ++i) {
    auto rid = t.Insert({Value::Int(1), Value::Str("a")});
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
    auto rid = t.Insert({Value::Int(1), Value::Str("a")});
    ASSERT_TRUE(rid.ok());
    expected.push_back(*rid);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedPostings(*idx, Value::Int(1)), expected);
  // An in-place update reuses its slot: same key, then a new key, then back.
  const RowId reused = expected.front();
  auto same = t.Update(reused, {Value::Int(1), Value::Str("b")});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, reused);
  EXPECT_EQ(SortedPostings(*idx, Value::Int(1)), expected);
  auto moved = t.Update(reused, {Value::Int(2), Value::Str("b")});
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, reused);
  EXPECT_EQ(idx->Lookup(Value::Int(2)), std::vector<RowId>{reused});
  auto back = t.Update(reused, {Value::Int(1), Value::Str("b")});
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(idx->Lookup(Value::Int(2)).empty());
  EXPECT_EQ(SortedPostings(*idx, Value::Int(1)), expected);
  if (GetParam() == IndexKind::kBTree) {
    EXPECT_TRUE(idx->btree->CheckInvariants().ok());
    EXPECT_EQ(idx->btree->size(), expected.size());
  } else {
    EXPECT_EQ(idx->hash->size(), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothKinds, IndexKindTest,
    ::testing::Values(IndexKind::kBTree, IndexKind::kHash),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return std::string(info.param == IndexKind::kBTree ? "BTree" : "Hash");
    });

TEST(TableTest, NullKeysNotIndexed) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id", IndexKind::kBTree).ok());
  ASSERT_TRUE(t.Insert({Value::Null(), Value::Str("ghost")}).ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  EXPECT_EQ(idx->Lookup(Value::Null()).size(), 0u);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx", "id", IndexKind::kBTree).ok());
  EXPECT_TRUE(
      t.CreateIndex("idx", "name", IndexKind::kBTree).IsAlreadyExists());
  EXPECT_TRUE(
      t.CreateIndex("idx2", "missing", IndexKind::kBTree).IsNotFound());
}

TEST(HashIndexTest, Basics) {
  HashIndex idx;
  idx.Insert(Value::Str("a"), RowId{0, 1});
  idx.Insert(Value::Str("a"), RowId{0, 2});
  idx.Insert(Value::Str("a"), RowId{0, 1});  // dup ignored
  idx.Insert(Value::Str("b"), RowId{1, 0});
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.num_keys(), 2u);
  EXPECT_EQ(idx.Lookup(Value::Str("a")).size(), 2u);
  EXPECT_TRUE(idx.Lookup(Value::Str("zzz")).empty());
  EXPECT_TRUE(idx.Remove(Value::Str("a"), RowId{0, 1}));
  EXPECT_FALSE(idx.Remove(Value::Str("a"), RowId{0, 1}));
  EXPECT_EQ(idx.Lookup(Value::Str("a")).size(), 1u);
  EXPECT_TRUE(idx.Remove(Value::Str("b"), RowId{1, 0}));
  EXPECT_FALSE(idx.Contains(Value::Str("b")));
}

}  // namespace
}  // namespace rdfrel::sql
