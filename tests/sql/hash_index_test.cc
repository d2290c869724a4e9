#include "sql/hash_index.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rdfrel::sql {
namespace {

RowId Rid(uint32_t n) { return RowId{n / 100, n % 100}; }

std::vector<RowId> Postings(const HashIndex& idx, const Value& key) {
  std::span<const RowId> rids = idx.Lookup(key);
  return std::vector<RowId>(rids.begin(), rids.end());
}

TEST(HashIndexTest, Basics) {
  HashIndex idx;
  idx.Append(Value::Str("a"), RowId{0, 1});
  idx.Append(Value::Str("a"), RowId{0, 2});
  idx.Append(Value::Str("b"), RowId{1, 0});
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

TEST(HashIndexTest, EmptyIndex) {
  HashIndex idx;
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.capacity(), 0u);
  EXPECT_TRUE(idx.Lookup(Value::Int(1)).empty());
  EXPECT_TRUE(idx.Lookup(Value::Str("x")).empty());
  EXPECT_FALSE(idx.Contains(Value::Int(1)));
  EXPECT_FALSE(idx.Remove(Value::Int(1), Rid(1)));
}

TEST(HashIndexTest, InsertLookupSingle) {
  HashIndex idx;
  idx.Append(Value::Int(5), Rid(1));
  EXPECT_EQ(Postings(idx, Value::Int(5)), std::vector<RowId>{Rid(1)});
  EXPECT_TRUE(idx.Contains(Value::Int(5)));
  EXPECT_FALSE(idx.Contains(Value::Int(6)));
}

TEST(HashIndexTest, DuplicateKeysAccumulate) {
  HashIndex idx;
  idx.Append(Value::Int(5), Rid(2));
  idx.Append(Value::Int(5), Rid(1));
  idx.Append(Value::Int(5), Rid(3));
  // In insertion order, not rid order.
  EXPECT_EQ(Postings(idx, Value::Int(5)),
            (std::vector<RowId>{Rid(2), Rid(1), Rid(3)}));
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.num_keys(), 1u);
}

TEST(HashIndexTest, GrowthKeepsEveryKey) {
  HashIndex idx;
  size_t last_capacity = 0;
  int grew = 0;
  for (uint32_t i = 0; i < 5000; ++i) {
    idx.Append(Value::Int(i), Rid(i));
    if (i % 7 == 0) idx.Append(Value::Int(i), Rid(i + 100000));
    if (idx.capacity() != last_capacity) {
      ++grew;
      last_capacity = idx.capacity();
    }
    // Never more than 3/4 full, always a power of two.
    ASSERT_LE(idx.num_keys() * 4, idx.capacity() * 3);
    ASSERT_EQ(idx.capacity() & (idx.capacity() - 1), 0u);
  }
  EXPECT_GT(grew, 5);
  EXPECT_EQ(idx.num_keys(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) {
    std::vector<RowId> want{Rid(i)};
    if (i % 7 == 0) want.push_back(Rid(i + 100000));
    ASSERT_EQ(Postings(idx, Value::Int(i)), want) << "key " << i;
  }
  EXPECT_TRUE(idx.Lookup(Value::Int(5000)).empty());
  EXPECT_TRUE(idx.Lookup(Value::Int(-1)).empty());
}

TEST(HashIndexTest, StringKeys) {
  HashIndex idx;
  for (uint32_t i = 0; i < 50; ++i) {
    idx.Append(Value::Str("key" + std::to_string(i)), Rid(i));
  }
  EXPECT_EQ(Postings(idx, Value::Str("key42")), std::vector<RowId>{Rid(42)});
  EXPECT_TRUE(idx.Lookup(Value::Str("nope")).empty());
  // Removing string keys recycles their storage without disturbing others.
  for (uint32_t i = 0; i < 50; i += 2) {
    EXPECT_TRUE(idx.Remove(Value::Str("key" + std::to_string(i)), Rid(i)));
  }
  idx.Append(Value::Str("fresh"), Rid(99));
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(idx.Contains(Value::Str("key" + std::to_string(i))), i % 2 == 1);
  }
  EXPECT_EQ(Postings(idx, Value::Str("fresh")), std::vector<RowId>{Rid(99)});
  EXPECT_EQ(idx.num_keys(), 26u);
}

TEST(HashIndexTest, RemovePostings) {
  HashIndex idx;
  idx.Append(Value::Int(1), Rid(10));
  idx.Append(Value::Int(1), Rid(11));
  idx.Append(Value::Int(1), Rid(12));
  EXPECT_TRUE(idx.Remove(Value::Int(1), Rid(11)));
  // The rest keep their order.
  EXPECT_EQ(Postings(idx, Value::Int(1)),
            (std::vector<RowId>{Rid(10), Rid(12)}));
  EXPECT_TRUE(idx.Remove(Value::Int(1), Rid(10)));
  EXPECT_EQ(Postings(idx, Value::Int(1)), std::vector<RowId>{Rid(12)});
  EXPECT_TRUE(idx.Remove(Value::Int(1), Rid(12)));
  EXPECT_FALSE(idx.Contains(Value::Int(1)));
  EXPECT_FALSE(idx.Remove(Value::Int(1), Rid(12)));
  EXPECT_FALSE(idx.Remove(Value::Int(99), Rid(0)));
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.num_keys(), 0u);
}

TEST(HashIndexTest, IntegralDoubleIsTheIntegerKey) {
  // Value equality: 5 = 5.0, so both spell one key; 5.5 is its own key
  // and a string never equals a number.
  HashIndex idx;
  idx.Append(Value::Int(5), Rid(1));
  idx.Append(Value::Real(5.0), Rid(2));
  idx.Append(Value::Real(5.5), Rid(3));
  idx.Append(Value::Str("5"), Rid(4));
  EXPECT_EQ(idx.num_keys(), 3u);
  const std::vector<RowId> five{Rid(1), Rid(2)};
  EXPECT_EQ(Postings(idx, Value::Int(5)), five);
  EXPECT_EQ(Postings(idx, Value::Real(5.0)), five);
  EXPECT_EQ(Postings(idx, Value::Real(5.5)), std::vector<RowId>{Rid(3)});
  EXPECT_EQ(Postings(idx, Value::Str("5")), std::vector<RowId>{Rid(4)});
  EXPECT_TRUE(idx.Lookup(Value::Real(5.25)).empty());
  EXPECT_TRUE(idx.Remove(Value::Real(5.0), Rid(1)));
  EXPECT_EQ(Postings(idx, Value::Int(5)), std::vector<RowId>{Rid(2)});
}

TEST(HashIndexTest, NullIsAKeyOfItsOwn) {
  // Tables never post NULLs, but the index itself follows Value's
  // structural equality: NULL matches only NULL.
  HashIndex idx;
  idx.Append(Value::Null(), Rid(1));
  idx.Append(Value::Int(0), Rid(2));
  EXPECT_EQ(Postings(idx, Value::Null()), std::vector<RowId>{Rid(1)});
  EXPECT_EQ(Postings(idx, Value::Int(0)), std::vector<RowId>{Rid(2)});
  EXPECT_TRUE(idx.Remove(Value::Null(), Rid(1)));
  EXPECT_TRUE(idx.Lookup(Value::Null()).empty());
  EXPECT_EQ(idx.num_keys(), 1u);
}

// ------------------------ Parameterized property sweep ---------------------

struct SweepParam {
  int num_keys;
  uint64_t seed;
};

class HashIndexPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HashIndexPropertyTest, RandomInsertRemoveMatchesReferenceSet) {
  const auto& p = GetParam();
  HashIndex idx;
  Random rng(p.seed);
  // key -> postings in insertion order.
  std::map<int64_t, std::vector<RowId>> reference;
  size_t postings = 0;
  const auto key_value = [&](int64_t key) {
    // Half the probes spell the key as an integral double.
    return rng.Uniform(2) == 0 ? Value::Int(key)
                               : Value::Real(static_cast<double>(key));
  };
  const auto check = [&] {
    ASSERT_EQ(idx.size(), postings);
    ASSERT_EQ(idx.num_keys(), reference.size());
    for (const auto& [key, rids] : reference) {
      ASSERT_EQ(Postings(idx, key_value(key)), rids) << "key " << key;
    }
  };

  // Random appends of fresh postings (keys repeat), some keys negative.
  for (int i = 0; i < p.num_keys; ++i) {
    const int64_t key =
        static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(p.num_keys / 2 + 1))) -
        p.num_keys / 8;
    const RowId rid = Rid(static_cast<uint32_t>(rng.Uniform(1000)));
    auto& rids = reference[key];
    if (std::find(rids.begin(), rids.end(), rid) != rids.end()) continue;
    idx.Append(key_value(key), rid);
    rids.push_back(rid);
    ++postings;
  }
  check();

  // Remove a random half of the postings; removing again fails.
  std::vector<std::pair<int64_t, RowId>> items;
  for (const auto& [key, rids] : reference) {
    for (RowId rid : rids) items.emplace_back(key, rid);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (rng.Uniform(2) == 0) continue;
    const auto& [key, rid] = items[i];
    ASSERT_TRUE(idx.Remove(key_value(key), rid));
    ASSERT_FALSE(idx.Remove(key_value(key), rid));
    auto& rids = reference[key];
    rids.erase(std::find(rids.begin(), rids.end(), rid));
    if (rids.empty()) reference.erase(key);
    --postings;
  }
  check();
  for (const auto& [key, rid] : items) {
    if (reference.count(key) == 0) {
      ASSERT_TRUE(idx.Lookup(key_value(key)).empty()) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashIndexPropertyTest,
    ::testing::Values(SweepParam{200, 1}, SweepParam{2000, 2},
                      SweepParam{2000, 3}, SweepParam{2000, 4},
                      SweepParam{20000, 5}, SweepParam{999, 6}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      return "n" + std::to_string(param_info.param.num_keys) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace rdfrel::sql
