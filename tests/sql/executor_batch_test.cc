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

INSTANTIATE_TEST_SUITE_P(BatchBoundaries, JoinBoundaryTest,
                         ::testing::Values(0, 1, 1023, 1024, 1025));

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
