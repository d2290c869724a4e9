/// Morsel-driven parallel executor (DESIGN.md §13): unit tests for the
/// dispenser / arena / pool primitives, and engine-level differentials
/// proving that a parallel plan returns *byte-identical* results to the
/// serial plan — same rows, same order — across joins, aggregates, ORDER
/// BY, LIMIT early-exit, and cancellation. Every suite is prefixed
/// ParallelTest so `ctest -R ParallelTest` runs exactly this layer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sql/database.h"
#include "sql/parallel.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace rdfrel::sql {
namespace {

// ---------------------------------------------------------------- primitives

TEST(ParallelTestMorsels, DispenserCoversRangeInOrder) {
  MorselDispenser d(/*total_units=*/103, /*units_per_morsel=*/10);
  EXPECT_EQ(d.total_morsels(), 11u);
  uint64_t expect_begin = 0;
  uint64_t index = 0;
  while (auto m = d.Claim()) {
    EXPECT_EQ(m->index, index);
    EXPECT_EQ(m->begin, expect_begin);
    EXPECT_EQ(m->end, std::min<uint64_t>(expect_begin + 10, 103));
    expect_begin = m->end;
    ++index;
  }
  EXPECT_EQ(index, 11u);
  EXPECT_EQ(expect_begin, 103u);
  EXPECT_TRUE(d.Exhausted());
}

TEST(ParallelTestMorsels, DispenserAbortStopsClaims) {
  MorselDispenser d(100, 10);
  ASSERT_TRUE(d.Claim().has_value());
  d.Abort();
  EXPECT_FALSE(d.Claim().has_value());
  EXPECT_TRUE(d.aborted());
  EXPECT_TRUE(d.Exhausted());
}

TEST(ParallelTestMorsels, DispenserConcurrentClaimsArePartition) {
  MorselDispenser d(10000, 7);
  std::atomic<uint64_t> units{0};
  std::atomic<uint64_t> morsels{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (auto m = d.Claim()) {
        units.fetch_add(m->end - m->begin);
        morsels.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(units.load(), 10000u);
  EXPECT_EQ(morsels.load(), d.total_morsels());
}

TEST(ParallelTestArena, AllocatesAlignedAndTracksBytes) {
  util::QueryArena arena;
  void* a = arena.Allocate(13, 8);
  void* b = arena.Allocate(64, 64);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  // Oversized allocations bypass the slab but still come from the arena.
  void* big = arena.Allocate(util::QueryArena::kSlabBytes * 2);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), util::QueryArena::kSlabBytes * 2);
}

TEST(ParallelTestArena, ConcurrentAllocationsAreDistinct) {
  util::QueryArena arena;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<void*>> ptrs(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&arena, &ptrs, t] {
      for (int i = 0; i < kPerThread; ++i) {
        void* p = arena.Allocate(24);
        // touch: TSan sees rival writes if shared
        std::memset(p, static_cast<int>(t), 24);
        ptrs[t].push_back(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<void*> all;
  for (const auto& v : ptrs) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(4 * kPerThread));
}

TEST(ParallelTestArena, StlAllocatorAdapterWorks) {
  util::QueryArena arena;
  std::vector<int, util::ArenaAllocator<int>> v{
      util::ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 10000u);
  EXPECT_EQ(v[9999], 9999);
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

TEST(ParallelTestPool, ExecutesEverySubmittedTask) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  constexpr int kTasks = 500;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) std::this_thread::yield();
  EXPECT_EQ(count.load(), kTasks);
  auto s = pool.stats();
  EXPECT_EQ(s.workers, 3u);
  EXPECT_EQ(s.submitted, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(s.executed, static_cast<uint64_t>(kTasks));
}

TEST(ParallelTestBuild, SoloIsClaimedExactlyOnce) {
  SharedJoinBuild b(/*build_dispenser=*/nullptr);
  EXPECT_TRUE(b.TryClaimSolo());
  EXPECT_FALSE(b.TryClaimSolo());
  b.Insert({Value::Int(1)}, 0, Row{Value::Int(1)});
  b.Insert({Value::Int(1)}, 1, Row{Value::Int(2)});
  b.FinishSolo(Status::OK());
  ASSERT_TRUE(b.WaitBuilt(nullptr).ok());
  const std::vector<Row>* rows = b.Lookup({Value::Int(1)});
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 1);  // serial order restored
  EXPECT_EQ((*rows)[1][0].AsInt(), 2);
  EXPECT_EQ(b.Lookup({Value::Int(9)}), nullptr);
}

TEST(ParallelTestBuild, CooperativeSealRestoresSeqOrder) {
  auto d = std::make_shared<MorselDispenser>(4, 2);
  SharedJoinBuild b(d);
  ASSERT_TRUE(b.BeginParticipate());
  // Insert out of order; seq tags define the serial order.
  b.Insert({Value::Int(7)}, /*seq=*/(2ull << 40), Row{Value::Int(30)});
  b.Insert({Value::Int(7)}, /*seq=*/(0ull << 40) + 1, Row{Value::Int(20)});
  b.Insert({Value::Int(7)}, /*seq=*/(0ull << 40), Row{Value::Int(10)});
  while (d->Claim()) {  // drain so EndParticipate can seal
  }
  b.EndParticipate(Status::OK());
  ASSERT_TRUE(b.WaitBuilt(nullptr).ok());
  const std::vector<Row>* rows = b.Lookup({Value::Int(7)});
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 10);
  EXPECT_EQ((*rows)[1][0].AsInt(), 20);
  EXPECT_EQ((*rows)[2][0].AsInt(), 30);
}

TEST(ParallelTestBuild, FailedParticipantPoisonsWaiters) {
  auto d = std::make_shared<MorselDispenser>(4, 2);
  SharedJoinBuild b(d);
  ASSERT_TRUE(b.BeginParticipate());
  b.EndParticipate(Status::Internal("simulated build failure"));
  Status st = b.WaitBuilt(nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(b.built());
}

TEST(ParallelTestBuild, LateParticipantsNeverReseal) {
  // A participant that arrives while (or after) the last finisher seals
  // must wait for the table, not seal a second time over the emptied
  // pending maps. Staggered arrivals make the window likely; a re-seal
  // shows as a lost row count (and as a race under TSan).
  constexpr uint64_t kRows = 2000;
  for (int rep = 0; rep < 50; ++rep) {
    auto d = std::make_shared<MorselDispenser>(kRows, 100);
    SharedJoinBuild b(d);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&b, &d, t] {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * t));
        if (b.BeginParticipate()) {
          while (auto m = d->Claim()) {
            for (uint64_t r = m->begin; r < m->end; ++r) {
              b.Insert({Value::Int(static_cast<int64_t>(r % 7))},
                       (m->index << 40) + (r - m->begin),
                       Row{Value::Int(static_cast<int64_t>(r))});
            }
          }
          b.EndParticipate(Status::OK());
        }
        EXPECT_TRUE(b.WaitBuilt(nullptr).ok());
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(b.built());
    ASSERT_EQ(b.size(), kRows) << "rep " << rep;
  }
}

// ------------------------------------------------------------- engine level

/// A database with enough rows that small morsels split into many units.
class ParallelTestEngine : public ::testing::Test {
 protected:
  static constexpr int kRows = 3000;

  void SetUp() override {
    Exec("CREATE TABLE fact (id BIGINT, grp BIGINT, val BIGINT)");
    Exec("CREATE TABLE dim (grp BIGINT, label VARCHAR)");
    for (int g = 0; g < 10; ++g) {
      Exec("INSERT INTO dim VALUES (" + std::to_string(g) + ", 'g" +
           std::to_string(g) + "')");
    }
    // Chunked inserts keep statement size bounded.
    for (int base = 0; base < kRows; base += 500) {
      std::string sql = "INSERT INTO fact VALUES ";
      for (int i = base; i < base + 500; ++i) {
        if (i != base) sql += ", ";
        sql += "(" + std::to_string(i) + ", " + std::to_string(i % 10) +
               ", " + std::to_string(i * 7 % 101) + ")";
      }
      Exec(sql);
    }
  }

  void Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  /// Runs \p sql with the given thread request and collects all rows.
  Result<std::vector<Row>> Run(const std::string& sql, unsigned threads,
                               uint32_t morsel_rows = 64) {
    ExecOptions exec;
    exec.max_threads = threads;
    exec.morsel_rows = morsel_rows;
    exec.parallel_min_rows = 0;
    std::vector<Row> out;
    RDFREL_RETURN_NOT_OK(db_.QueryStreaming(
        sql, exec, nullptr, [&](const RowBatch& batch) -> Status {
          for (size_t r = 0; r < batch.ActiveSize(); ++r) {
            out.push_back(batch.Active(r));
          }
          return Status::OK();
        }));
    return out;
  }

  /// Serial vs parallel must agree row-for-row, in order.
  void ExpectIdentical(const std::string& sql) {
    auto serial = Run(sql, 1);
    ASSERT_TRUE(serial.ok()) << sql << " -> " << serial.status().ToString();
    for (unsigned threads : {2u, 4u}) {
      auto par = Run(sql, threads);
      ASSERT_TRUE(par.ok()) << sql << " -> " << par.status().ToString();
      ASSERT_EQ(serial->size(), par->size()) << sql << " threads=" << threads;
      for (size_t i = 0; i < serial->size(); ++i) {
        ASSERT_EQ((*serial)[i].size(), (*par)[i].size());
        for (size_t c = 0; c < (*serial)[i].size(); ++c) {
          ASSERT_EQ((*serial)[i][c].ToString(), (*par)[i][c].ToString())
              << sql << " threads=" << threads << " row " << i << " col "
              << c;
        }
      }
    }
  }

  Database db_;
};

TEST_F(ParallelTestEngine, ScanFilterProjectIdentical) {
  ExpectIdentical("SELECT id, val * 2 FROM fact WHERE val > 50");
}

TEST_F(ParallelTestEngine, HashJoinIdentical) {
  ExpectIdentical(
      "SELECT f.id, d.label FROM fact f, dim d "
      "WHERE f.grp = d.grp AND f.val > 30");
}

TEST_F(ParallelTestEngine, AggregateIdentical) {
  ExpectIdentical(
      "SELECT grp, COUNT(*), SUM(val) FROM fact GROUP BY grp");
}

TEST_F(ParallelTestEngine, JoinAggregateIdentical) {
  ExpectIdentical(
      "SELECT d.label, COUNT(*) FROM fact f, dim d "
      "WHERE f.grp = d.grp GROUP BY d.label");
}

TEST_F(ParallelTestEngine, OrderByIdentical) {
  ExpectIdentical(
      "SELECT id, val FROM fact WHERE grp = 3 ORDER BY val DESC, id");
}

TEST_F(ParallelTestEngine, DistinctIdentical) {
  ExpectIdentical("SELECT DISTINCT val FROM fact");
}

TEST_F(ParallelTestEngine, LimitTearsDownExchangeCleanly) {
  // LIMIT closes the tree after a handful of batches; the exchange dtor
  // must abort and join its workers without deadlock or leak (ASan/TSan
  // jobs exercise this hardest).
  for (int rep = 0; rep < 5; ++rep) {
    auto rows = Run("SELECT id FROM fact LIMIT 10", 4);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 10u);
    for (size_t i = 0; i < 10; ++i) {
      // serial order preserved
      EXPECT_EQ((*rows)[i][0].AsInt(), static_cast<int64_t>(i));
    }
  }
}

TEST_F(ParallelTestEngine, CancellationSurfacesAndJoinsWorkers) {
  std::atomic<bool> cancel{false};
  ExecControl control;
  control.cancel = &cancel;
  ExecOptions exec;
  exec.control = &control;
  exec.max_threads = 4;
  exec.morsel_rows = 16;
  exec.parallel_min_rows = 0;
  int batches = 0;
  Status st = db_.QueryStreaming(
      "SELECT f1.id FROM fact f1, fact f2 WHERE f1.grp = f2.grp",
      exec, nullptr, [&](const RowBatch&) -> Status {
        if (++batches == 2) cancel.store(true);
        return Status::OK();
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
}

TEST_F(ParallelTestEngine, ExplainShowsExchangeCounters) {
  ExecOptions exec;
  exec.max_threads = 4;
  exec.morsel_rows = 64;
  exec.parallel_min_rows = 0;
  std::string profile;
  auto r = db_.QueryProfiled("SELECT id FROM fact WHERE val > 10", &profile,
                             &exec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(profile.find("Exchange"), std::string::npos) << profile;
  EXPECT_NE(profile.find("morsels="), std::string::npos) << profile;
  EXPECT_NE(profile.find("workers="), std::string::npos) << profile;
  EXPECT_NE(profile.find("arena_bytes="), std::string::npos) << profile;
}

TEST_F(ParallelTestEngine, SmallInputCutoffKeepsSerialPlan) {
  ExecOptions exec;
  exec.max_threads = 4;
  // Default parallel_min_rows (8192) > kRows: plan must stay serial.
  std::string profile;
  auto r = db_.QueryProfiled("SELECT id FROM fact", &profile, &exec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(profile.find("Exchange"), std::string::npos) << profile;
}

TEST_F(ParallelTestEngine, SubqueryMaterializedOncePerQuery) {
  // The FROM-subquery materializes during planning; pipeline clones must
  // share one materialization (and agree with the serial run).
  ExpectIdentical(
      "SELECT f.id, s.c FROM fact f, "
      "(SELECT grp AS g, COUNT(*) AS c FROM fact GROUP BY grp) s "
      "WHERE f.grp = s.g AND f.val > 90");
}

TEST_F(ParallelTestEngine, UnionAllIdentical) {
  ExpectIdentical(
      "SELECT id FROM fact WHERE val > 95 "
      "UNION ALL SELECT id FROM fact WHERE val < 5");
}

TEST_F(ParallelTestEngine, StatsCountersAdvance) {
  const uint64_t before =
      GlobalParallelExecStats().queries.load(std::memory_order_relaxed);
  auto rows = Run("SELECT id FROM fact", 4);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
  EXPECT_GT(GlobalParallelExecStats().queries.load(std::memory_order_relaxed),
            before);
}

// ------------------------------------------------ CTEs on the parallel path

/// CTE chains (DESIGN.md §13): every CTE body runs under an Exchange at
/// these tiny morsels, and a last CTE the body only renames streams.
/// Output must still be byte-identical to the serial run.
class ParallelTestCte : public ParallelTestEngine {
 protected:
  /// The profile of a parallel run of \p sql.
  std::string Profile(const std::string& sql) {
    ExecOptions exec;
    exec.max_threads = 4;
    exec.morsel_rows = 64;
    exec.parallel_min_rows = 0;
    std::string profile;
    auto r = db_.QueryProfiled(sql, &profile, &exec);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return profile;
  }

  /// Cancels or times out a parallel run of a CTE chain heavy enough to
  /// be mid-chain when the control fires; returns the run's status.
  Status RunHeavyChain(const ExecControl& control) {
    ExecOptions exec;
    exec.control = &control;
    exec.max_threads = 4;
    exec.morsel_rows = 64;
    exec.parallel_min_rows = 0;
    return db_.QueryStreaming(
        "WITH a AS (SELECT f1.id AS id, f1.grp AS grp FROM fact f1, fact f2 "
        "WHERE f1.grp = f2.grp), "
        "b AS (SELECT f1.id AS id, f1.grp AS grp FROM fact f1, fact f2 "
        "WHERE f1.grp = f2.grp AND f2.val < 50), "
        "c AS (SELECT a.id AS id, d.label AS label FROM a, dim d "
        "WHERE a.grp = d.grp), "
        "e AS (SELECT b.id AS id FROM b, dim d WHERE b.grp = d.grp) "
        "SELECT c.id FROM c UNION ALL SELECT e.id FROM e",
        exec, nullptr, [](const RowBatch&) { return Status::OK(); });
  }

  /// Waits until every task submitted to the global pool has run.
  static bool PoolDrains() {
    for (int i = 0; i < 500; ++i) {
      const util::ThreadPool::Stats s = util::ThreadPool::Global().stats();
      if (s.queued == 0 && s.executed == s.submitted) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }
};

TEST_F(ParallelTestCte, ConsumedByTwoLaterCtesIdentical) {
  ExpectIdentical(
      "WITH a AS (SELECT id, grp, val FROM fact WHERE val > 10), "
      "b AS (SELECT a.id AS id, d.label AS label FROM a, dim d "
      "WHERE a.grp = d.grp), "
      "c AS (SELECT a.id AS id, a.val AS val FROM a WHERE a.val < 80), "
      "e AS (SELECT b.id AS id, b.label AS label, c.val AS val FROM b, c "
      "WHERE b.id = c.id) "
      "SELECT e.id, e.label, e.val FROM e");
}

TEST_F(ParallelTestCte, UnionAllCteIdentical) {
  // Once read by a later CTE (materialized), once as the last CTE
  // (streamed).
  ExpectIdentical(
      "WITH u AS (SELECT id, val FROM fact WHERE val > 90 "
      "UNION ALL SELECT id, val FROM fact WHERE val < 10), "
      "v AS (SELECT u.id AS id, u.val AS val FROM u WHERE u.val > 3) "
      "SELECT v.id, v.val FROM v");
  ExpectIdentical(
      "WITH a AS (SELECT id, grp FROM fact WHERE val > 50), "
      "u AS (SELECT a.id AS id FROM a WHERE a.grp = 3 "
      "UNION ALL SELECT a.id AS id FROM a WHERE a.grp = 7) "
      "SELECT u.id FROM u");
}

TEST_F(ParallelTestCte, CteUnderLeftJoinIdentical) {
  ExpectIdentical(
      "WITH a AS (SELECT grp, COUNT(*) AS c FROM fact "
      "WHERE val > 50 AND grp < 5 GROUP BY grp), "
      "b AS (SELECT f.id AS id, a.c AS c FROM fact f "
      "LEFT OUTER JOIN a ON f.grp = a.grp) "
      "SELECT b.id, b.c FROM b");
}

TEST_F(ParallelTestCte, FinalSelectStreamsOnlyWhenItRenames) {
  const std::string with =
      "WITH a AS (SELECT id, grp, val FROM fact WHERE val > 20), "
      "b AS (SELECT a.id AS id, a.val AS val, d.label AS label "
      "FROM a, dim d WHERE a.grp = d.grp) ";
  // A WHERE, an ORDER BY or a LIMIT keeps the last CTE materialized.
  for (const std::string& tail :
       {std::string("SELECT b.id, b.label FROM b WHERE b.val > 60"),
        std::string("SELECT b.id, b.val FROM b ORDER BY b.val DESC, b.id"),
        std::string("SELECT b.id FROM b LIMIT 7")}) {
    ExpectIdentical(with + tail);
    const std::string profile = Profile(with + tail);
    EXPECT_NE(profile.find("CTE b materialized"), std::string::npos)
        << profile;
    EXPECT_EQ(profile.find("streamed"), std::string::npos) << profile;
  }
  // Renaming and reordering columns only: the last CTE streams.
  for (const std::string& tail :
       {std::string("SELECT b.id, b.val, b.label FROM b"),
        std::string("SELECT b.label AS l, b.id FROM b"),
        std::string("SELECT * FROM b")}) {
    ExpectIdentical(with + tail);
    const std::string profile = Profile(with + tail);
    EXPECT_NE(profile.find("CTE b streamed"), std::string::npos) << profile;
    EXPECT_EQ(profile.find("CTE b materialized"), std::string::npos)
        << profile;
    EXPECT_NE(profile.find("CTE a materialized"), std::string::npos)
        << profile;
  }
}

TEST_F(ParallelTestCte, ProfileShowsEveryCteWithItsExchange) {
  const std::string profile = Profile(
      "WITH a AS (SELECT id, grp FROM fact WHERE val > 20), "
      "b AS (SELECT a.id AS id, d.label AS label FROM a, dim d "
      "WHERE a.grp = d.grp) "
      "SELECT b.id, b.label FROM b");
  const size_t a = profile.find("CTE a materialized: rows=");
  const size_t b = profile.find("CTE b streamed: rows=");
  ASSERT_NE(a, std::string::npos) << profile;
  ASSERT_NE(b, std::string::npos) << profile;
  // Both bodies were morsel-split: an Exchange sits under each block.
  EXPECT_NE(profile.substr(a, b - a).find("Exchange"), std::string::npos)
      << profile;
  EXPECT_NE(profile.find("Exchange", b), std::string::npos) << profile;
  EXPECT_NE(profile.find("MaterializedScan(a)"), std::string::npos)
      << profile;
}

TEST_F(ParallelTestCte, CancellationMidChainStopsEveryTask) {
  std::atomic<bool> cancel{false};
  ExecControl control;
  control.cancel = &cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.store(true);
  });
  const Status st = RunHeavyChain(control);
  canceller.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_TRUE(PoolDrains());
}

TEST_F(ParallelTestCte, DeadlineMidChainStopsEveryTask) {
  ExecControl control;
  control.has_deadline = true;
  control.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  const Status st = RunHeavyChain(control);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_TRUE(PoolDrains());
}

TEST_F(ParallelTestCte, NestedWithIsScopedToItsStatement) {
  // A nested WITH's names are visible inside its own statement only, in
  // serial and parallel runs alike.
  ExpectIdentical(
      "WITH a AS (WITH x AS (SELECT id, grp FROM fact WHERE val > 30) "
      "SELECT x.id AS id, x.grp AS grp FROM x WHERE x.grp < 6), "
      "b AS (SELECT a.id AS id, d.label AS label FROM a, dim d "
      "WHERE a.grp = d.grp) "
      "SELECT b.id, b.label FROM b");
  ExpectIdentical(
      "SELECT s.id FROM (WITH x AS (SELECT id FROM fact WHERE val < 20) "
      "SELECT x.id AS id FROM x) s");
  // An inner definition shadows an outer one inside its statement only.
  const std::string shadowed =
      "WITH x AS (SELECT id FROM fact WHERE val < 5), "
      "a AS (WITH x AS (SELECT id FROM fact WHERE val > 95) "
      "SELECT x.id AS id FROM x) "
      "SELECT a.id FROM a UNION ALL SELECT x.id FROM x";
  ExpectIdentical(shadowed);
  auto high = Run("SELECT id FROM fact WHERE val > 95", 1);
  auto low = Run("SELECT id FROM fact WHERE val < 5", 1);
  auto both = Run(shadowed, 4);
  ASSERT_TRUE(high.ok() && low.ok() && both.ok());
  ASSERT_FALSE(high->empty());
  ASSERT_FALSE(low->empty());
  std::vector<Row> want = *high;
  want.insert(want.end(), low->begin(), low->end());
  ASSERT_EQ(both->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*both)[i][0].ToString(), want[i][0].ToString()) << "row " << i;
  }
  // Outside its statement a nested name is unknown.
  for (const std::string& sql :
       {std::string("WITH a AS (WITH x AS (SELECT id FROM fact) "
                    "SELECT x.id AS id FROM x), "
                    "b AS (SELECT x.id AS id FROM x) SELECT b.id FROM b"),
        std::string("WITH a AS (WITH x AS (SELECT id FROM fact) "
                    "SELECT x.id AS id FROM x) SELECT x.id FROM x")}) {
    for (unsigned threads : {1u, 4u}) {
      auto r = Run(sql, threads);
      EXPECT_FALSE(r.ok()) << "threads=" << threads << ": " << sql;
    }
  }
}

TEST_F(ParallelTestCte, EarliestFailingCteInStatementOrderIsReported) {
  // slow_bad fails only after the self-join it reads is materialized;
  // quick_bad, later in statement order, fails at once. Serial execution
  // stops at slow_bad, so every run must report slow_bad's error.
  const std::string sql =
      "WITH big AS (SELECT f1.id AS id, f1.grp AS grp FROM fact f1, fact f2 "
      "WHERE f1.grp = f2.grp AND f2.val < 30), "
      "slow_bad AS (SELECT d.label + 1 AS bad FROM big, dim d "
      "WHERE big.grp = d.grp), "
      "quick_bad AS (SELECT -label AS bad FROM dim) "
      "SELECT slow_bad.bad FROM slow_bad "
      "UNION ALL SELECT quick_bad.bad FROM quick_bad";
  for (unsigned threads : {1u, 4u, 4u, 4u}) {
    auto r = Run(sql, threads);
    ASSERT_FALSE(r.ok()) << "threads=" << threads;
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
    EXPECT_NE(r.status().message().find("arithmetic on string value"),
              std::string::npos)
        << "threads=" << threads << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace rdfrel::sql
