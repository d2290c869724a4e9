/// Vectorized-execution tests: RowBatch semantics, the join operators at
/// batch-boundary input sizes (0, 1, capacity-1, capacity, capacity+1) with
/// duplicate build keys and NULL join keys, and a mixed SQL workload. Every
/// engine answer is checked against rows the test computes from its own
/// generated tuples with plain loops, never against another engine path.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/database.h"
#include "sql/executor.h"
#include "sql/row_batch.h"

namespace rdfrel::sql {
namespace {

// ------------------------------------------------------------- RowBatch

TEST(RowBatchTest, OwnedRowsAreReusedAcrossReset) {
  RowBatch b(4);
  for (int round = 0; round < 3; ++round) {
    b.Reset();
    EXPECT_EQ(b.size(), 0u);
    while (!b.Full()) {
      Row* r = b.AddRow();
      r->assign({Value::Int(round)});
    }
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.ActiveSize(), 4u);
    for (size_t i = 0; i < b.ActiveSize(); ++i) {
      EXPECT_EQ(b.Active(i)[0].AsInt(), round);
    }
  }
}

TEST(RowBatchTest, PopRowUndoesAdd) {
  RowBatch b;
  b.AddRow()->assign({Value::Int(1)});
  b.AddRow()->assign({Value::Int(2)});
  b.PopRow();
  EXPECT_EQ(b.ActiveSize(), 1u);
  EXPECT_EQ(b.Active(0)[0].AsInt(), 1);
}

TEST(RowBatchTest, SelectionFiltersWithoutMovingRows) {
  RowBatch b;
  for (int i = 0; i < 10; ++i) b.AddRow()->assign({Value::Int(i)});
  b.SetSelection({1, 4, 7});
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.ActiveSize(), 3u);
  EXPECT_EQ(b.Active(0)[0].AsInt(), 1);
  EXPECT_EQ(b.Active(2)[0].AsInt(), 7);
  EXPECT_EQ(b.ActiveIndex(1), 4u);
  // Stacked selection (a second filter) keeps physical indices.
  b.SetSelection({4});
  EXPECT_EQ(b.Active(0)[0].AsInt(), 4);
}

TEST(RowBatchTest, BorrowIsZeroCopyAndResetDetaches) {
  std::vector<Row> src;
  for (int i = 0; i < 5; ++i) src.push_back({Value::Int(i)});
  RowBatch b;
  b.Borrow(src.data(), src.size());
  EXPECT_EQ(b.ActiveSize(), 5u);
  EXPECT_EQ(&b.Active(2), &src[2]);  // same storage, no copy
  b.Reset();
  EXPECT_EQ(b.size(), 0u);
}

TEST(RowBatchTest, FlushToCollectsActiveRows) {
  RowBatch b;
  for (int i = 0; i < 6; ++i) b.AddRow()->assign({Value::Int(i)});
  b.SetSelection({0, 5});
  std::vector<Row> out;
  b.FlushTo(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][0].AsInt(), 5);
}

TEST(RowBatchTest, MaterializedKeepsBatchBuffersAndCopiesBorrowedOnes) {
  Materialized mat;
  RowBatch full;
  int next = 0;
  while (!full.Full()) full.AddRow()->assign({Value::Int(next++)});
  const Row* buffer = &full.RowAt(0);
  mat.Append(&full);  // a full owned batch is handed over, not copied
  EXPECT_EQ(mat.chunk_data(0), buffer);
  EXPECT_EQ(full.size(), 0u);
  // Selected, borrowed and small batches all land on one copied chunk, so
  // a filtered stream does not materialize as many few-row chunks.
  RowBatch selected;
  for (int i = 0; i < 4; ++i) selected.AddRow()->assign({Value::Int(next++)});
  selected.SetSelection({1, 3});
  mat.Append(&selected);  // copies 2 rows
  const Row borrowed_rows[] = {{Value::Int(next++)}, {Value::Int(next++)}};
  RowBatch borrowed;
  borrowed.Borrow(borrowed_rows, 2);
  mat.Append(&borrowed);  // copies 2 rows
  RowBatch small;
  small.AddRow()->assign({Value::Int(next++)});
  mat.Append(&small);  // moves 1 row
  const size_t cap = RowBatch::kDefaultCapacity;
  ASSERT_EQ(mat.num_rows(), cap + 5);
  EXPECT_EQ(mat.ChunkOf(cap), 1u);
  EXPECT_EQ(mat.ChunkOf(cap + 4), 1u);
  EXPECT_EQ(mat.chunk_size(1), 5u);
  std::vector<int64_t> tail;
  for (size_t i = 0; i < 5; ++i) {
    tail.push_back(mat.chunk_data(1)[i][0].AsInt());
  }
  const int64_t c = static_cast<int64_t>(cap);
  EXPECT_EQ(tail, (std::vector<int64_t>{c + 1, c + 3, c + 4, c + 5, c + 6}));
  // A later handed-over chunk starts a new chunk after the copied one.
  RowBatch full2;
  while (!full2.Full()) full2.AddRow()->assign({Value::Int(next++)});
  mat.Append(&full2);
  EXPECT_EQ(mat.ChunkOf(cap + 5), 2u);
  EXPECT_EQ(mat.num_rows(), 2 * cap + 5);
}

TEST(RowBatchTest, MaterializedScanRangesCrossChunks) {
  // Chunks of 3, 0 (dropped), 5 and 2 rows: every morsel range and batch
  // capacity must see rows [begin, end) in order, across chunk edges.
  auto mat = std::make_shared<Materialized>();
  mat->scope.Add("", "v");
  int next = 0;
  for (int n : {3, 0, 5, 2}) {
    std::vector<Row> chunk;
    for (int i = 0; i < n; ++i) chunk.push_back({Value::Int(next++)});
    mat->Append(std::move(chunk));
  }
  ASSERT_EQ(mat->num_rows(), 10u);
  EXPECT_EQ(mat->ChunkOf(0), 0u);
  EXPECT_EQ(mat->ChunkOf(3), 1u);
  EXPECT_EQ(mat->ChunkOf(9), 2u);
  MaterializedScanOp scan(mat, "t", "cte");
  EXPECT_EQ(scan.name(), "MaterializedScan(cte)");
  for (size_t capacity : {1u, 2u, 4u, 1024u}) {
    for (uint64_t begin = 0; begin <= 10; ++begin) {
      for (uint64_t end = begin; end <= 11; ++end) {
        scan.SetMorselRange(begin, end);
        ASSERT_TRUE(scan.Open().ok());
        RowBatch batch(capacity);
        std::vector<int64_t> got;
        while (true) {
          auto has = scan.NextBatch(&batch);
          ASSERT_TRUE(has.ok());
          if (!*has) break;
          EXPECT_LE(batch.size(), capacity);
          for (size_t i = 0; i < batch.ActiveSize(); ++i) {
            got.push_back(batch.Active(i)[0].AsInt());
          }
        }
        std::vector<int64_t> want;
        for (uint64_t r = begin; r < std::min<uint64_t>(end, 10); ++r) {
          want.push_back(static_cast<int64_t>(r));
        }
        EXPECT_EQ(got, want) << "[" << begin << ", " << end << ") capacity "
                             << capacity;
      }
    }
  }
}

// ------------------------------------------------- expected-row helpers

std::string RowSig(const Row& row) {
  std::string s;
  for (const auto& v : row) {
    s += v.ToString();
    s += "\x1f";
  }
  return s;
}

std::multiset<std::string> Sig(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) out.insert(RowSig(row));
  return out;
}

std::vector<std::string> OrderedSig(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) out.push_back(RowSig(row));
  return out;
}

/// Runs \p q and checks its rows against \p expected: as a multiset, or in
/// order when \p ordered (ORDER BY queries).
void ExpectRows(Database& db, const std::string& q,
                const std::vector<Row>& expected, bool ordered = false) {
  auto res = db.Query(q);
  ASSERT_TRUE(res.ok()) << q << "\n" << res.status().ToString();
  if (ordered) {
    EXPECT_EQ(OrderedSig(res->rows), OrderedSig(expected)) << q;
  } else {
    EXPECT_EQ(Sig(res->rows), Sig(expected))
        << q << "\nengine: " << res->rows.size()
        << " rows, expected: " << expected.size() << " rows";
  }
}

/// Asserts that the plan for \p q contains operator \p op, so each join
/// case exercises the operator it is named after.
void ExpectOperator(Database& db, const std::string& q,
                    const std::string& op) {
  std::string profile;
  auto res = db.QueryProfiled(q, &profile);
  ASSERT_TRUE(res.ok()) << q << "\n" << res.status().ToString();
  EXPECT_NE(profile.find(op + ":"), std::string::npos) << q << "\n"
                                                       << profile;
}

Value IntOrNull(std::optional<int64_t> v) {
  return v.has_value() ? Value::Int(*v) : Value::Null();
}

/// Bulk insert in chunks (multi-row VALUES).
void InsertRows(Database& db, const std::string& table,
                const std::vector<std::string>& tuples) {
  for (size_t i = 0; i < tuples.size();) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = 0; j < 256 && i < tuples.size(); ++j, ++i) {
      if (j) sql += ", ";
      sql += tuples[i];
    }
    auto st = db.Execute(sql);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
}

std::string Sql(std::optional<int64_t> v) {
  return v.has_value() ? std::to_string(*v) : "NULL";
}

// ------------------------------------------------ join edge cases

/// One row of `l(a, b)` or `r(a, c)`: a nullable join key and a payload.
struct KeyRow {
  std::optional<int64_t> a;
  int64_t payload;
};

/// The probe table `l(a,b)` with \p n rows: key cycles over 0..12 (hitting
/// duplicated and absent build keys), every 10th key is NULL.
std::vector<KeyRow> ProbeTuples(size_t n) {
  std::vector<KeyRow> out;
  for (size_t i = 0; i < n; ++i) {
    std::optional<int64_t> key;
    if (i % 10 != 9) key = static_cast<int64_t>(i % 13);
    out.push_back({key, static_cast<int64_t>(i)});
  }
  return out;
}

/// The build table `r(a,c)`: keys 0..6 each duplicated 3x, plus two
/// NULL-key rows (which must never join).
std::vector<KeyRow> BuildTuples() {
  std::vector<KeyRow> out;
  for (int64_t dup = 0; dup < 3; ++dup) {
    for (int64_t k = 0; k < 7; ++k) out.push_back({k, dup * 100 + k});
  }
  out.push_back({std::nullopt, 900});
  out.push_back({std::nullopt, 901});
  return out;
}

void CreateKeyTable(Database& db, const std::string& name,
                    const std::string& payload,
                    const std::vector<KeyRow>& rows) {
  ASSERT_TRUE(db.Execute("CREATE TABLE " + name + " (a INTEGER, " + payload +
                         " INTEGER)")
                  .ok());
  std::vector<std::string> tuples;
  for (const auto& r : rows) {
    tuples.push_back("(" + Sql(r.a) + ", " + std::to_string(r.payload) + ")");
  }
  InsertRows(db, name, tuples);
}

/// Expected rows of `l JOIN r` under \p match (both keys non-NULL), as
/// `SELECT *` rows, or as `SELECT l.b, r.c` rows padded with NULL for
/// unmatched probe rows when \p left_outer.
template <typename Match>
std::vector<Row> ExpectedJoin(const std::vector<KeyRow>& l,
                              const std::vector<KeyRow>& r, Match match,
                              bool left_outer) {
  std::vector<Row> out;
  for (const auto& lr : l) {
    bool matched = false;
    for (const auto& rr : r) {
      if (!lr.a.has_value() || !rr.a.has_value() || !match(lr, rr)) continue;
      matched = true;
      if (left_outer) {
        out.push_back({Value::Int(lr.payload), Value::Int(rr.payload)});
      } else {
        out.push_back({IntOrNull(lr.a), Value::Int(lr.payload),
                       IntOrNull(rr.a), Value::Int(rr.payload)});
      }
    }
    if (left_outer && !matched) {
      out.push_back({Value::Int(lr.payload), Value::Null()});
    }
  }
  return out;
}

/// Checks the three equi-join shapes (inner, left outer, inner with a
/// residual predicate) against loop-computed rows.
void ExpectEquiJoins(Database& db, const std::vector<KeyRow>& l,
                     const std::vector<KeyRow>& r) {
  auto eq = [](const KeyRow& x, const KeyRow& y) { return *x.a == *y.a; };
  auto eq_residual = [](const KeyRow& x, const KeyRow& y) {
    return *x.a == *y.a && x.payload + y.payload > 50;
  };
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a = r.a",
             ExpectedJoin(l, r, eq, false));
  ExpectRows(db, "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a",
             ExpectedJoin(l, r, eq, true));
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a = r.a AND l.b + r.c > 50",
             ExpectedJoin(l, r, eq_residual, false));
}

class JoinBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(JoinBoundaryTest, HashJoinRowAndBatchAgree) {
  Database db;
  const auto l = ProbeTuples(GetParam());
  const auto r = BuildTuples();
  CreateKeyTable(db, "l", "b", l);
  CreateKeyTable(db, "r", "c", r);  // no index => hash join
  ExpectOperator(db, "SELECT * FROM l, r WHERE l.a = r.a", "HashJoin");
  ExpectEquiJoins(db, l, r);
}

TEST_P(JoinBoundaryTest, IndexNLJoinRowAndBatchAgree) {
  Database db;
  const auto l = ProbeTuples(GetParam());
  const auto r = BuildTuples();
  CreateKeyTable(db, "l", "b", l);
  CreateKeyTable(db, "r", "c", r);
  ASSERT_TRUE(db.Execute("CREATE INDEX idx_r_a ON r (a)").ok());
  ExpectOperator(db, "SELECT * FROM l, r WHERE l.a = r.a", "IndexNLJoin(r)");
  ExpectEquiJoins(db, l, r);
}

TEST_P(JoinBoundaryTest, NestedLoopJoinRowAndBatchAgree) {
  Database db;
  // Cap the cross-product: NLJ sizes use min(n, 64) probe rows. 64 probe
  // rows x 23 build rows still fill more than one output batch.
  const auto l = ProbeTuples(std::min<size_t>(GetParam(), 64));
  const auto r = BuildTuples();
  CreateKeyTable(db, "l", "b", l);
  CreateKeyTable(db, "r", "c", r);
  // Non-equi predicates force the nested-loop fallback.
  ExpectOperator(db, "SELECT * FROM l, r WHERE l.a < r.a", "NestedLoopJoin");
  ExpectOperator(db, "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a < r.a",
                 "NestedLoopJoin");
  auto lt = [](const KeyRow& x, const KeyRow& y) { return *x.a < *y.a; };
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a < r.a",
             ExpectedJoin(l, r, lt, false));
  ExpectRows(db, "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a < r.a",
             ExpectedJoin(l, r, lt, true));
}

/// One outer key matching GetParam() inner rows: the index join's cursor
/// inside the posting list must cut the fan-out into batches no larger
/// than the capacity, for inner and LEFT joins alike.
TEST_P(JoinBoundaryTest, IndexNLJoinFanOutStaysWithinCapacity) {
  const size_t fan = GetParam();
  std::vector<KeyRow> r;
  for (size_t i = 0; i < fan; ++i) r.push_back({7, static_cast<int64_t>(i)});
  r.push_back({3, 5000});
  r.push_back({3, 5001});
  // Key 7 fans out (twice), 99 and NULL match nothing, 3 matches twice.
  const std::vector<KeyRow> l = {
      {7, 1}, {99, 2}, {std::nullopt, 3}, {3, 4}, {7, 5}};
  Database db;
  CreateKeyTable(db, "l", "b", l);
  CreateKeyTable(db, "r", "c", r);
  ASSERT_TRUE(db.Execute("CREATE INDEX idx_r_a ON r (a)").ok());
  ExpectOperator(db, "SELECT * FROM l, r WHERE l.a = r.a", "IndexNLJoin(r)");
  auto eq = [](const KeyRow& x, const KeyRow& y) { return *x.a == *y.a; };
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a = r.a",
             ExpectedJoin(l, r, eq, false));
  ExpectRows(db, "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a",
             ExpectedJoin(l, r, eq, true));

  auto outer = std::make_shared<Materialized>();
  outer->scope.Add("l", "a");
  outer->scope.Add("l", "b");
  std::vector<Row> outer_rows;
  for (const auto& lr : l) {
    outer_rows.push_back({IntOrNull(lr.a), Value::Int(lr.payload)});
  }
  outer->Append(std::move(outer_rows));
  auto table = db.catalog().GetTable("r");
  ASSERT_TRUE(table.ok());
  for (bool left_outer : {false, true}) {
    // Expected in execution order: outer rows in order, each one's matches
    // in posting (insertion) order.
    std::vector<Row> expected;
    for (const auto& lr : l) {
      bool matched = false;
      for (const auto& rr : r) {
        if (!lr.a.has_value() || *lr.a != *rr.a) continue;
        matched = true;
        expected.push_back({IntOrNull(lr.a), Value::Int(lr.payload),
                            IntOrNull(rr.a), Value::Int(rr.payload)});
      }
      if (left_outer && !matched) {
        expected.push_back({IntOrNull(lr.a), Value::Int(lr.payload),
                            Value::Null(), Value::Null()});
      }
    }
    IndexNLJoinOp join(std::make_unique<MaterializedScanOp>(outer, "l"),
                       *table, "r", (*table)->FindIndexOn("a"),
                       MakeSlotRef(0), left_outer, /*residual=*/nullptr,
                       std::vector<int>{0, 1});
    ASSERT_TRUE(join.Open().ok());
    RowBatch batch;
    std::vector<Row> rows;
    while (true) {
      auto has = join.NextBatch(&batch);
      ASSERT_TRUE(has.ok()) << has.status().ToString();
      if (!*has) break;
      EXPECT_LE(batch.size(), RowBatch::kDefaultCapacity)
          << "fan-out " << fan << (left_outer ? " LEFT" : " inner");
      batch.FlushTo(&rows);
    }
    EXPECT_EQ(OrderedSig(rows), OrderedSig(expected))
        << "fan-out " << fan << (left_outer ? " LEFT" : " inner");
  }
}

INSTANTIATE_TEST_SUITE_P(BatchBoundaries, JoinBoundaryTest,
                         ::testing::Values(0, 1, 1023, 1024, 1025, 2049));

// ------------------------------------- index-join predicate pushdown

/// One row of `r(a, c, s)`: the indexed join key, a nullable integer
/// payload, and a string column holding digits on some rows.
struct WideRow {
  int64_t a;
  std::optional<int64_t> c;
  std::string s;
};

/// Conjuncts over the probed table alone are tested on the stored row
/// inside IndexNLJoin (both planner branches); WHERE conjuncts of a LEFT
/// JOIN stay above it. Every answer is checked against loop-computed rows.
class IndexJoinPushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t i = 0; i < 40; ++i) {
      std::optional<int64_t> key;
      if (i % 10 != 9) key = static_cast<int64_t>(i % 9);
      l_.push_back({key, static_cast<int64_t>(i)});
    }
    for (int64_t j = 0; j < 60; ++j) {
      std::optional<int64_t> c;
      if (j % 6 != 5) c = (j % 4) * 5;  // 0, 5, 10, 15 or NULL
      r_.push_back({j % 7, c, j % 3 == 0 ? "5" : "x" + std::to_string(j)});
    }
    CreateKeyTable(db_, "l", "b", l_);
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE r (a INTEGER, c INTEGER, s VARCHAR)").ok());
    std::vector<std::string> tuples;
    for (const auto& w : r_) {
      tuples.push_back("(" + std::to_string(w.a) + ", " + Sql(w.c) + ", '" +
                       w.s + "')");
    }
    InsertRows(db_, "r", tuples);
    ASSERT_TRUE(db_.Execute("CREATE INDEX idx_r_a ON r (a)").ok());
  }

  /// `l.b, r.c` rows of l joined to r on `a` where \p inner holds, padded
  /// with NULL for unmatched l rows when \p left_outer.
  template <typename Pred>
  std::vector<Row> Join(Pred inner, bool left_outer) const {
    std::vector<Row> out;
    for (const auto& lr : l_) {
      bool matched = false;
      for (const auto& rr : r_) {
        if (!lr.a.has_value() || *lr.a != rr.a || !inner(rr)) continue;
        matched = true;
        out.push_back({Value::Int(lr.payload), IntOrNull(rr.c)});
      }
      if (left_outer && !matched) {
        out.push_back({Value::Int(lr.payload), Value::Null()});
      }
    }
    return out;
  }

  /// The profile of \p q, after checking its rows against \p expected.
  std::string Profile(const std::string& q, const std::vector<Row>& expected) {
    ExpectRows(db_, q, expected);
    std::string profile;
    auto res = db_.QueryProfiled(q, &profile);
    EXPECT_TRUE(res.ok()) << q << "\n" << res.status().ToString();
    return profile;
  }

  /// Whether the profile line directly above the IndexNLJoin is a Filter.
  static bool FilterAboveJoin(const std::string& profile) {
    size_t join = profile.find("IndexNLJoin(r):");
    if (join == std::string::npos) return false;
    size_t end = profile.rfind('\n', join);  // end of the line above
    if (end == std::string::npos || end == 0) return false;
    size_t begin = profile.rfind('\n', end - 1);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::string above = profile.substr(begin, end - begin);
    return above.find("Filter:") == above.find_first_not_of(' ');
  }

  static bool HasInnerPredicates(const std::string& profile) {
    size_t join = profile.find("IndexNLJoin(r):");
    size_t eol = profile.find('\n', join);
    return join != std::string::npos &&
           profile.substr(join, eol - join).find(" inner=[") !=
               std::string::npos;
  }

  Database db_;
  std::vector<KeyRow> l_;
  std::vector<WideRow> r_;
};

TEST_F(IndexJoinPushdownTest, InnerJoinPushesInnerOnlyWhereConjuncts) {
  const auto c_is_5 = [](const WideRow& w) { return w.c == 5; };
  std::string p = Profile(
      "SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND r.c = 5",
      Join(c_is_5, false));
  EXPECT_TRUE(HasInnerPredicates(p)) << p;
  EXPECT_FALSE(FilterAboveJoin(p)) << p;
  // The deferred-left branch: r comes first and is the probed side.
  p = Profile("SELECT l.b, r.c FROM r, l WHERE r.a = l.a AND r.c = 5",
              Join(c_is_5, false));
  EXPECT_TRUE(HasInnerPredicates(p)) << p;
  EXPECT_FALSE(FilterAboveJoin(p)) << p;
  // Two inner conjuncts, the translator's `T.predK = p AND T.valK = o`.
  p = Profile("SELECT l.b, r.c FROM r, l WHERE r.a = l.a AND r.c = 5 "
              "AND r.s = '5'",
              Join([](const WideRow& w) { return w.c == 5 && w.s == "5"; },
                   false));
  EXPECT_NE(p.find(" AND "), std::string::npos) << p;
}

TEST_F(IndexJoinPushdownTest, LeftJoinWhereOnInnerIsNotPushed) {
  // NULL-padded rows fail `r.c = 5` and must be dropped after the join.
  std::vector<Row> expected;
  for (const Row& row : Join([](const WideRow&) { return true; }, true)) {
    if (!row[1].is_null() && row[1].AsInt() == 5) expected.push_back(row);
  }
  std::string p = Profile(
      "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a WHERE r.c = 5",
      expected);
  EXPECT_FALSE(HasInnerPredicates(p)) << p;
  EXPECT_TRUE(FilterAboveJoin(p)) << p;
  // Pushing `IS NULL` below the padding would keep rows it must not.
  expected.clear();
  for (const Row& row : Join([](const WideRow&) { return true; }, true)) {
    if (row[1].is_null()) expected.push_back(row);
  }
  Profile("SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a WHERE r.c IS NULL",
          expected);
}

TEST_F(IndexJoinPushdownTest, InnerOnlyOnConditionsArePushed) {
  const auto c_gt_5 = [](const WideRow& w) {
    return w.c.has_value() && *w.c > 5;
  };
  std::string p = Profile(
      "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a AND r.c > 5",
      Join(c_gt_5, true));
  EXPECT_TRUE(HasInnerPredicates(p)) << p;
  p = Profile("SELECT l.b, r.c FROM l JOIN r ON l.a = r.a AND r.c > 5",
              Join(c_gt_5, false));
  EXPECT_TRUE(HasInnerPredicates(p)) << p;
}

TEST_F(IndexJoinPushdownTest, EqualsNullNeverMatches) {
  const auto none = [](const WideRow&) { return false; };
  Profile("SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND r.c = NULL",
          Join(none, false));
  Profile("SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a AND r.c = NULL",
          Join(none, true));
}

TEST_F(IndexJoinPushdownTest, IntegerEqualsIntegralDouble) {
  Profile("SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND r.c = 5.0",
          Join([](const WideRow& w) { return w.c == 5; }, false));
}

TEST_F(IndexJoinPushdownTest, StringNeverEqualsInteger) {
  const auto none = [](const WideRow&) { return false; };
  Profile("SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND r.s = 5",
          Join(none, false));
  Profile("SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND r.c = '5'",
          Join(none, false));
}

TEST_F(IndexJoinPushdownTest, NonEqualityConjunctTakesGenericPath) {
  std::string p = Profile(
      "SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND r.c < 10",
      Join([](const WideRow& w) { return w.c.has_value() && *w.c < 10; },
           false));
  EXPECT_TRUE(HasInnerPredicates(p)) << p;
  EXPECT_NE(p.find("<"), std::string::npos) << p;
}

// ------------------------------------------- index-join column pruning

/// A table read through an index emits only the columns read above it
/// (DESIGN.md §7, "Column pruning"). Each query is compared byte for byte,
/// serially and on four threads with two-row morsels, with an unpruned
/// reference: the same join under `SELECT *` in a FROM-subquery, a core
/// that is never pruned. The outer input is a CTE, so the parallel runs
/// split it into morsels.
class IndexJoinPushdownPruneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE o (k INTEGER, v INTEGER)").ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE w (k INTEGER, x INTEGER, "
                            "y INTEGER, z VARCHAR)")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE u (x INTEGER, y INTEGER)").ok());
    std::vector<std::string> tuples;
    for (int i = 0; i < 300; ++i) {
      tuples.push_back("(" + std::to_string(i % 37) + ", " +
                       std::to_string(i) + ")");
    }
    InsertRows(db_, "o", tuples);
    tuples.clear();
    for (int j = 0; j < 200; ++j) {
      // Keys 0..40 (some o keys never match); y is NULL on every 6th row.
      tuples.push_back("(" + std::to_string(j % 41) + ", " +
                       std::to_string(j % 5) + ", " +
                       (j % 6 == 5 ? "NULL" : std::to_string(j % 7)) +
                       ", 'z" + std::to_string(j % 11) + "')");
    }
    InsertRows(db_, "w", tuples);
    tuples.clear();
    for (int x = 0; x < 5; ++x) {
      tuples.push_back("(" + std::to_string(x) + ", " +
                       std::to_string(10 * x) + ")");
    }
    InsertRows(db_, "u", tuples);
    ASSERT_TRUE(db_.Execute("CREATE INDEX idx_w_k ON w (k)").ok());
    ASSERT_TRUE(db_.Execute("CREATE INDEX idx_u_x ON u (x)").ok());
  }

  static constexpr const char* kOuterCte =
      "WITH d AS (SELECT k AS dk, v FROM o) ";

  /// Rows of \p q, serially or on four threads with two-row morsels.
  std::vector<Row> Run(const std::string& q, bool parallel) {
    ExecOptions exec;
    exec.max_threads = parallel ? 4 : 1;
    exec.morsel_rows = 2;
    exec.parallel_min_rows = 0;
    std::vector<Row> rows;
    Status st = db_.QueryStreaming(
        q, exec, nullptr, [&rows](const RowBatch& batch) {
          for (size_t i = 0; i < batch.ActiveSize(); ++i) {
            rows.push_back(batch.Active(i));
          }
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << q << "\n" << st.ToString();
    return rows;
  }

  /// Checks \p q against \p reference in both modes; returns q's serial
  /// profile. A join driven by the CTE must run under an Exchange on four
  /// threads.
  std::string Check(const std::string& q, const std::string& reference,
                    bool driven_by_cte = true) {
    const std::vector<std::string> want =
        OrderedSig(Run(kOuterCte + reference, false));
    EXPECT_FALSE(want.empty()) << reference;
    for (bool parallel : {false, true}) {
      EXPECT_EQ(OrderedSig(Run(kOuterCte + q, parallel)), want)
          << q << (parallel ? " (parallel)" : " (serial)");
      EXPECT_EQ(OrderedSig(Run(kOuterCte + reference, parallel)), want)
          << reference << (parallel ? " (parallel)" : " (serial)");
    }
    ExecOptions exec;
    exec.max_threads = 4;
    exec.morsel_rows = 2;
    exec.parallel_min_rows = 0;
    std::string profile;
    auto res = db_.QueryProfiled(kOuterCte + q, &profile, &exec);
    EXPECT_TRUE(res.ok()) << q << "\n" << res.status().ToString();
    EXPECT_EQ(profile.find("Exchange:") != std::string::npos, driven_by_cte)
        << profile;
    res = db_.QueryProfiled(kOuterCte + q, &profile);
    EXPECT_TRUE(res.ok()) << q << "\n" << res.status().ToString();
    return profile;
  }

  /// The " cols=E/N" figure of the first profile line of \p op.
  static std::string Cols(const std::string& profile, const std::string& op) {
    const size_t at = profile.find(op + ":");
    if (at == std::string::npos) return "no " + op;
    const std::string line = profile.substr(at, profile.find('\n', at) - at);
    const size_t cols = line.find(" cols=");
    if (cols == std::string::npos) return "no cols in " + line;
    const size_t end = line.find(' ', cols + 1);
    return line.substr(cols + 6, end == std::string::npos
                                     ? std::string::npos
                                     : end - cols - 6);
  }

  Database db_;
};

TEST_F(IndexJoinPushdownPruneTest, SelectStarIsNotPruned) {
  const std::string p =
      Check("SELECT * FROM d, w WHERE d.dk = w.k AND w.x = 3",
            "SELECT d.dk, d.v, w.k, w.x, w.y, w.z FROM d, w "
            "WHERE d.dk = w.k AND w.x = 3");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "4/4") << p;
}

TEST_F(IndexJoinPushdownPruneTest, LeftJoinPadsOnlyEmittedColumns) {
  const std::string p = Check(
      "SELECT d.v, w.y FROM d LEFT JOIN w ON d.dk = w.k AND w.x > 2",
      "SELECT sub.v, sub.y FROM "
      "(SELECT * FROM d LEFT JOIN w ON d.dk = w.k AND w.x > 2) AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "1/4") << p;
  // Unmatched outer rows are padded, one NULL wide.
  bool padded = false;
  for (const Row& row : Run(std::string(kOuterCte) +
                                "SELECT d.v, w.y FROM d LEFT JOIN w "
                                "ON d.dk = w.k AND w.x > 2",
                            false)) {
    EXPECT_EQ(row.size(), 2u);
    padded |= row[1].is_null();
  }
  EXPECT_TRUE(padded);
}

TEST_F(IndexJoinPushdownPruneTest, OrderByAndGroupByReadPrunedScope) {
  std::string p = Check(
      "SELECT d.v FROM d, w WHERE d.dk = w.k ORDER BY w.z, d.v",
      "SELECT sub.v FROM (SELECT * FROM d, w WHERE d.dk = w.k) AS sub "
      "ORDER BY sub.z, sub.v");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "1/4") << p;
  p = Check(
      "SELECT w.y AS y, COUNT(*) AS n FROM d, w WHERE d.dk = w.k "
      "GROUP BY w.y ORDER BY y",
      "SELECT sub.y AS y, COUNT(*) AS n FROM "
      "(SELECT * FROM d, w WHERE d.dk = w.k) AS sub GROUP BY sub.y "
      "ORDER BY y");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "1/4") << p;
}

TEST_F(IndexJoinPushdownPruneTest, ResidualBindsToPrunedScope) {
  // `d.v + w.x > 10` runs on the joined row, so x is emitted; the second
  // equi `d.v = w.y` becomes a residual that needs y.
  std::string p = Check(
      "SELECT d.v FROM d JOIN w ON d.dk = w.k AND d.v + w.x > 10",
      "SELECT sub.v FROM "
      "(SELECT * FROM d JOIN w ON d.dk = w.k AND d.v + w.x > 10) AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "1/4") << p;
  p = Check("SELECT d.v, w.z FROM d, w WHERE d.dk = w.k AND d.v = w.y",
            "SELECT sub.v, sub.z FROM (SELECT * FROM d, w "
            "WHERE d.dk = w.k AND d.v = w.y) AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "2/4") << p;
}

TEST_F(IndexJoinPushdownPruneTest, UnqualifiedReferencesKeepEveryCandidate) {
  const std::string p = Check(
      "SELECT v, z FROM d, w WHERE d.dk = w.k",
      "SELECT sub.v, sub.z FROM (SELECT * FROM d, w WHERE d.dk = w.k) AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "1/4") << p;
  // `y` names a column of both w and u: pruning must keep both, so the
  // reference stays ambiguous rather than resolving to the survivor.
  auto res = db_.Query(std::string(kOuterCte) +
                       "SELECT y FROM d, w, u WHERE d.dk = w.k AND w.x = u.x");
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().ToString().find("ambiguous"), std::string::npos)
      << res.status().ToString();
}

TEST_F(IndexJoinPushdownPruneTest, UnnestArgumentsAreEmitted) {
  const std::string p = Check(
      "SELECT d.v, t.val FROM d, w, UNNEST(w.x, w.y) AS t(val) "
      "WHERE d.dk = w.k",
      "SELECT sub.v, t.val FROM (SELECT * FROM d, w WHERE d.dk = w.k) AS sub, "
      "UNNEST(sub.x, sub.y) AS t(val)");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "2/4") << p;
}

TEST_F(IndexJoinPushdownPruneTest, KeyAndInnerPredicateColumnsReadAbove) {
  // Tested in place only: neither the key nor x is emitted.
  std::string p = Check(
      "SELECT d.v FROM d, w WHERE d.dk = w.k AND w.x = 3",
      "SELECT sub.v FROM (SELECT * FROM d, w WHERE d.dk = w.k AND w.x = 3) "
      "AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "0/4") << p;
  // Read again above: both are emitted, in both join orientations.
  p = Check("SELECT w.k, w.x, d.v FROM d, w WHERE d.dk = w.k AND w.x = 3",
            "SELECT sub.k, sub.x, sub.v FROM (SELECT * FROM d, w "
            "WHERE d.dk = w.k AND w.x = 3) AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "2/4") << p;
  p = Check("SELECT w.k, w.x, d.v FROM w, d WHERE w.k = d.dk AND w.x = 3",
            "SELECT sub.k, sub.x, sub.v FROM (SELECT * FROM w, d "
            "WHERE w.k = d.dk AND w.x = 3) AS sub");
  EXPECT_EQ(Cols(p, "IndexNLJoin(w)"), "2/4") << p;
  // An index scan prunes the same way.
  p = Check("SELECT w.y FROM w WHERE w.k = 5",
            "SELECT sub.y FROM (SELECT * FROM w WHERE w.k = 5) AS sub",
            /*driven_by_cte=*/false);
  EXPECT_EQ(Cols(p, "IndexScan(w)"), "1/4") << p;
}

// ------------------------------------------------ SQL-level workload

/// One row of `t(id, grp, v, s)`.
struct WorkRow {
  int64_t id;
  int64_t grp;
  std::optional<double> v;
  std::optional<std::string> s;

  Row All() const {
    return {Value::Int(id), Value::Int(grp),
            v.has_value() ? Value::Real(*v) : Value::Null(),
            s.has_value() ? Value::Str(*s) : Value::Null()};
  }
};

TEST(SqlWorkloadTest, QueriesMatchRowsComputedFromTuples) {
  std::vector<WorkRow> t;
  for (int64_t i = 0; i < 3000; ++i) {
    WorkRow w{i, i % 7, std::nullopt, std::nullopt};
    if (i % 17 != 0) w.v = static_cast<double>(i) * 0.5;
    if (i % 23 != 0) w.s = "s" + std::to_string(i % 50);
    t.push_back(w);
  }
  Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (id INTEGER, grp INTEGER, v DOUBLE, "
                 "s VARCHAR)")
          .ok());
  std::vector<std::string> tuples;
  for (const auto& w : t) {
    tuples.push_back("(" + std::to_string(w.id) + ", " +
                     std::to_string(w.grp) + ", " +
                     (w.v.has_value() ? std::to_string(*w.v) : "NULL") +
                     ", " + (w.s.has_value() ? "'" + *w.s + "'" : "NULL") +
                     ")");
  }
  InsertRows(db, "t", tuples);

  auto select = [&](auto pred) {
    std::vector<Row> out;
    for (const auto& w : t) {
      if (pred(w)) out.push_back(w.All());
    }
    return out;
  };
  ExpectRows(db, "SELECT * FROM t", select([](const WorkRow&) {
               return true;
             }));
  ExpectRows(db, "SELECT * FROM t WHERE v > 100",
             select([](const WorkRow& w) { return w.v && *w.v > 100; }));
  ExpectRows(db, "SELECT * FROM t WHERE v IS NULL",
             select([](const WorkRow& w) { return !w.v.has_value(); }));
  {
    std::vector<Row> rows;
    for (const auto& w : t) {
      if (w.grp > 2) continue;
      rows.push_back({Value::Int(w.id + w.grp),
                      w.v ? Value::Real(*w.v * 2) : Value::Null()});
    }
    ExpectRows(db, "SELECT id + grp, v * 2 FROM t WHERE grp <= 2", rows);
  }
  {
    std::vector<Row> rows;
    for (int64_t g = 0; g < 7; ++g) rows.push_back({Value::Int(g)});
    ExpectRows(db, "SELECT DISTINCT grp FROM t", rows);
  }
  {
    // Aggregates skip NULL inputs; SUM folds in input (id) order.
    std::vector<Row> rows;
    for (int64_t g = 0; g < 7; ++g) {
      int64_t count = 0;
      double sum = 0;
      std::optional<std::string> min_s;
      for (const auto& w : t) {
        if (w.grp != g) continue;
        ++count;
        if (w.v) sum += *w.v;
        if (w.s && (!min_s || *w.s < *min_s)) min_s = w.s;
      }
      rows.push_back({Value::Int(g), Value::Int(count), Value::Real(sum),
                      min_s ? Value::Str(*min_s) : Value::Null()});
    }
    ExpectRows(db, "SELECT grp, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY grp",
               rows);
  }
  {
    std::vector<WorkRow> sorted = t;
    std::sort(sorted.begin(), sorted.end(),
              [](const WorkRow& a, const WorkRow& b) {
                return a.grp != b.grp ? a.grp < b.grp : a.id > b.id;
              });
    std::vector<Row> rows;
    for (size_t i = 0; i < 10; ++i) rows.push_back(sorted[i].All());
    ExpectRows(db, "SELECT * FROM t ORDER BY grp, id DESC LIMIT 10", rows,
               /*ordered=*/true);
  }
  {
    std::vector<Row> rows;
    for (size_t i = 2995; i < t.size(); ++i) rows.push_back(t[i].All());
    ExpectRows(db, "SELECT * FROM t ORDER BY id LIMIT 100 OFFSET 2995", rows,
               /*ordered=*/true);
  }
  ExpectRows(db,
             "SELECT * FROM t WHERE id < 5 UNION ALL SELECT * FROM t "
             "WHERE id >= 2995",
             select([](const WorkRow& w) {
               return w.id < 5 || w.id >= 2995;
             }));
  {
    int64_t big = 0;
    for (const auto& w : t) big += (w.v && *w.v > 500) ? 1 : 0;
    ExpectRows(db,
               "WITH big AS (SELECT id, v FROM t WHERE v > 500) "
               "SELECT COUNT(*) FROM big",
               {{Value::Int(big)}});
  }
  {
    std::vector<Row> rows;
    for (const auto& w : t) {
      if (w.grp == 0) rows.push_back({Value::Int(w.id)});
    }
    ExpectRows(db, "SELECT a.id FROM t a, t b WHERE a.id = b.id AND a.grp = 0",
               rows);
  }
  {
    std::vector<Row> rows;
    for (int64_t g = 0; g < 7; ++g) {
      std::optional<double> max_v;
      for (const auto& w : t) {
        if (w.grp == g && w.v && (!max_v || *w.v > *max_v)) max_v = w.v;
      }
      if (max_v && *max_v > 100) rows.push_back({Value::Real(*max_v)});
    }
    ExpectRows(db,
               "SELECT x.m FROM (SELECT grp, MAX(v) AS m FROM t GROUP BY grp) "
               "x WHERE x.m > 100",
               rows);
  }
  {
    int64_t lo = 0;
    for (const auto& w : t) lo += w.grp < 3 ? 1 : 0;
    const int64_t hi = static_cast<int64_t>(t.size()) - lo;
    ExpectRows(db,
               "SELECT CASE WHEN grp < 3 THEN 'lo' ELSE 'hi' END, COUNT(*) "
               "FROM t GROUP BY CASE WHEN grp < 3 THEN 'lo' ELSE 'hi' END",
               {{Value::Str("lo"), Value::Int(lo)},
                {Value::Str("hi"), Value::Int(hi)}});
  }
}

TEST(SqlWorkloadTest, ProfiledQueryReportsOperatorStats) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
  std::vector<std::string> tuples;
  for (int i = 0; i < 2000; ++i) {
    tuples.push_back("(" + std::to_string(i) + ")");
  }
  InsertRows(db, "t", tuples);
  std::string profile;
  auto qr = db.QueryProfiled("SELECT id FROM t WHERE id >= 1000", &profile);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  EXPECT_EQ(qr->rows.size(), 1000u);
  EXPECT_NE(profile.find("SeqScan(t)"), std::string::npos) << profile;
  EXPECT_NE(profile.find("Filter"), std::string::npos) << profile;
  EXPECT_NE(profile.find("rows=1000"), std::string::npos) << profile;
  EXPECT_NE(profile.find("ms="), std::string::npos) << profile;
}

}  // namespace
}  // namespace rdfrel::sql
