#ifndef RDFREL_SQL_PLANNER_H_
#define RDFREL_SQL_PLANNER_H_

/// \file planner.h
/// Rule-based physical planning. Join order follows the written FROM order
/// (the SPARQL optimizer already chose it — paper §3); the planner picks
/// access paths: index scan for `col = constant` on indexed columns, index
/// nested-loop joins when an equi-join column is indexed, hash joins
/// otherwise. CTEs are materialized in statement order before the body
/// runs (PlanSelect).

#include <map>
#include <memory>
#include <string>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Per-query planning environment: the materialized CTEs visible by name,
/// plus — for a profiled execution — the profile blocks of the CTEs
/// materialized under it.
struct CteEnv {
  std::map<std::string, std::shared_ptr<const Materialized>> tables;
  /// Profiled execution: CTE bodies run with per-operator timing, and each
  /// materialized CTE appends one block to `profile`, in statement order:
  ///   CTE q1 materialized: rows=30000 ms=4.210
  ///     Core: rows=30000 batches=30 ms=4.180
  ///       ...
  bool timing = false;
  std::string profile;
};

/// Plans \p stmt and returns the root operator for its body. The CTEs are
/// materialized first, in statement order; a CTE's name is visible to the
/// later CTEs and the body of its own statement only (a nested WITH does
/// not leak out). If the body merely renames the columns of the last CTE,
/// that CTE is not materialized but planned as the body's subtree and
/// streamed.
///
/// The returned operator tree borrows \p catalog, which must outlive it;
/// it holds the materialized results it scans itself. \p control (when
/// non-null) makes the CTE and subquery materializations — which run
/// *during planning* — honor the query's deadline/cancel token, and must
/// outlive execution.
///
/// \p exec (when non-null, with max_threads > 1) lets the planner
/// parallelize eligible cores — the statement's, every CTE body's and
/// every FROM-subquery's: the join/projection pipeline is cloned per
/// worker under an ExchangeOp (sql/parallel.h). Results are identical to
/// the serial plan; \p exec must outlive execution.
Result<OperatorPtr> PlanSelect(const Catalog& catalog,
                               const ast::SelectStmt& stmt, CteEnv* env,
                               const ExecControl* control = nullptr,
                               const ExecOptions* exec = nullptr);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_PLANNER_H_
