/// Parallel CTE bodies on a small pool (DESIGN.md §13). Registered with
/// RDFREL_POOL_THREADS=2, so each of eight CTE bodies — an Exchange over
/// four pipeline clones — has more clones than pool workers. The query
/// thread consumes every Exchange, and pool tasks wait only on peers that
/// are already running, so the query must finish, byte-identical to the
/// serial run.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/database.h"
#include "util/thread_pool.h"

namespace rdfrel::sql {
namespace {

class ParallelTestCtePool : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE fact (id BIGINT, grp BIGINT)").ok());
    std::string sql = "INSERT INTO fact VALUES ";
    for (int i = 0; i < 2000; ++i) {
      if (i != 0) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 8) + ")";
    }
    ASSERT_TRUE(db_.Execute(sql).ok());
  }

  Result<std::vector<std::string>> Run(const std::string& sql,
                                       unsigned threads) {
    ExecOptions exec;
    exec.max_threads = threads;
    exec.morsel_rows = 16;
    exec.parallel_min_rows = 0;
    std::vector<std::string> out;
    RDFREL_RETURN_NOT_OK(db_.QueryStreaming(
        sql, exec, nullptr, [&](const RowBatch& batch) -> Status {
          for (size_t r = 0; r < batch.ActiveSize(); ++r) {
            out.push_back(batch.Active(r)[0].ToString());
          }
          return Status::OK();
        }));
    return out;
  }

  Database db_;
};

TEST_F(ParallelTestCtePool, EightParallelCtesFinishOnTwoWorkers) {
  ASSERT_EQ(util::ThreadPool::Global().num_workers(), 2u)
      << "run under RDFREL_POOL_THREADS=2 (see tests/CMakeLists.txt)";
  std::string with = "WITH ";
  std::string body;
  for (int k = 0; k < 8; ++k) {
    const std::string name = "c" + std::to_string(k);
    if (k != 0) {
      with += ", ";
      body += " UNION ALL ";
    }
    with += name + " AS (SELECT id * 10 + grp AS v FROM fact WHERE grp = " +
            std::to_string(k) + ")";
    body += "SELECT " + name + ".v FROM " + name;
  }
  const std::string sql = with + " " + body;
  auto serial = Run(sql, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->size(), 2000u);
  for (int rep = 0; rep < 5; ++rep) {
    auto par = Run(sql, 4);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(*par, *serial) << "rep " << rep;
  }
}

}  // namespace
}  // namespace rdfrel::sql
