#ifndef RDFREL_STORE_BACKEND_UTIL_H_
#define RDFREL_STORE_BACKEND_UTIL_H_

/// \file backend_util.h
/// Shared pipeline pieces for every SparqlStore implementation: optimize a
/// query into an execution tree, execute+decode generated SQL, explain the
/// pipeline stages, and memoize translated plans in a sharded LRU cache so
/// repeated queries skip the whole parse/optimize/translate front half.

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "opt/exec_tree.h"
#include "opt/statistics.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sql/database.h"
#include "sql/exec_control.h"
#include "store/result_set.h"
#include "store/row_sink.h"
#include "store/sparql_store.h"
#include "translate/sql_base.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace rdfrel::store {

/// A fully translated query, ready to execute. The parsed AST is retained
/// because result decoding needs the projection/aggregate shape and the
/// post-filters point into its FILTER nodes (stable heap storage). Plans
/// are shared immutably via shared_ptr: a reader holding one stays safe
/// even if the cache entry is concurrently evicted or invalidated.
struct CachedPlan {
  sparql::Query query;
  std::string sql;
  std::vector<const sparql::FilterExpr*> post_filters;
  /// Unprojected variables the post-filters read; carried as extra
  /// trailing SQL columns and dropped after filtering (sql_base.h).
  std::vector<std::string> post_filter_vars;
  /// True when `sql` references materialized property-path closure tables;
  /// such plans die with the tables on the next write.
  bool uses_closure = false;
};

/// The cache key: the raw query text plus the QueryOptions knobs (each knob
/// changes the generated SQL).
std::string PlanCacheKey(std::string_view sparql, const QueryOptions& opts);

/// The per-store plan/translation cache. Thread-safe; see util/lru_cache.h.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : cache_(capacity) {}

  std::shared_ptr<const CachedPlan> Get(const std::string& key) {
    auto hit = cache_.Get(key);
    return hit ? std::move(*hit) : nullptr;
  }
  void Put(const std::string& key, std::shared_ptr<const CachedPlan> plan) {
    cache_.Put(key, std::move(plan));
  }
  /// Writers call this after mutating data: every plan is dropped (a write
  /// can change spill sets and always drops closure tables).
  void Clear() { cache_.Clear(); }

  util::CacheStats stats() const { return cache_.stats(); }

 private:
  util::ShardedLruCache<std::string, std::shared_ptr<const CachedPlan>>
      cache_;
};

/// Optimization for the baseline backends: flow tree per \p opts, late
/// fusing per \p opts. No star merging (baseline layouts have no wide
/// rows, so the merging knob is ignored).
Result<opt::ExecNodePtr> OptimizeForBackend(const sparql::Query& query,
                                            const opt::Statistics& stats,
                                            const rdf::Dictionary& dict,
                                            const QueryOptions& opts = {});

/// Backend hook for ExplainForBackend / TranslateForBackend: turn an
/// execution tree into SQL. The query reference passed in is the one the
/// resulting plan will own (do not capture another copy: the caller's
/// query may already be moved-from).
using SqlBuildFn = std::function<Result<translate::TranslatedQuery>(
    const sparql::Query&, const opt::ExecNode&)>;

/// Shared Explain implementation for backends without star merging:
/// parse/flow/exec stages from the shared optimizer, plan_tree == exec
/// tree, SQL from \p build. When \p db is non-null the SQL is also executed
/// once with profiling on to fill Explanation::exec_stats.
Result<SparqlStore::Explanation> ExplainForBackend(
    const sparql::Query& query, const opt::Statistics& stats,
    const rdf::Dictionary& dict, const QueryOptions& opts,
    const SqlBuildFn& build, sql::Database* db = nullptr);

/// Shared translation for baseline backends: optimizer + \p build, wrapped
/// into a CachedPlan (consuming \p query).
Result<std::shared_ptr<const CachedPlan>> TranslateForBackend(
    sparql::Query query, const opt::Statistics& stats,
    const rdf::Dictionary& dict, const QueryOptions& opts,
    const SqlBuildFn& build);

/// Builds the executor-side cancellation handle from the execution-only
/// QueryOptions fields (deadline, cancel token).
sql::ExecControl ControlFromOptions(const QueryOptions& opts);

/// Maps the execution-only QueryOptions parallelism knobs onto engine
/// ExecOptions. max_threads == 0 resolves to hardware concurrency and keeps
/// the default small-input cutoff; an explicit N > 1 disables the cutoff so
/// the caller gets parallelism even on tiny inputs (differential tests).
/// ExecOptions::control is NOT set — callers own the control's lifetime.
sql::ExecOptions ExecOptionsFromQueryOptions(const QueryOptions& opts);

/// The streaming execution back half shared by every backend: runs \p sql
/// on \p db batch-at-a-time, decodes ids through \p dict, applies
/// \p post_filters per block, and pushes the surviving solutions into
/// \p sink (Begin/OnRows.../End). Deadline and cancel from \p opts are
/// checked at every batch boundary.
Status ExecuteDecodedSqlStreaming(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars,
    const QueryOptions& opts, RowSink& sink);

/// Materializing convenience over the streaming back half.
Result<ResultSet> ExecuteDecodedSql(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars = {},
    const QueryOptions& opts = {});

/// Executes a translated plan (cache hit or fresh) against \p db.
inline Status ExecutePlanStreaming(sql::Database* db, const CachedPlan& plan,
                                   const rdf::Dictionary& dict,
                                   const QueryOptions& opts, RowSink& sink) {
  return ExecuteDecodedSqlStreaming(db, plan.sql, plan.query, dict,
                                    plan.post_filters, plan.post_filter_vars,
                                    opts, sink);
}
inline Result<ResultSet> ExecutePlan(sql::Database* db,
                                     const CachedPlan& plan,
                                     const rdf::Dictionary& dict,
                                     const QueryOptions& opts = {}) {
  return ExecuteDecodedSql(db, plan.sql, plan.query, dict, plan.post_filters,
                           plan.post_filter_vars, opts);
}

/// Builds the `(id, num)` lex side table named \p table for every numeric
/// literal in \p dict (rdf::NumericValue: typed xsd numerics only, so a
/// simple literal such as "5" never compares as a number). A table of that
/// name already in the catalog is replaced: snapshots written before this
/// rule kept rows for simple literals, so recovery rebuilds the table from
/// the recovered dictionary rather than trusting the persisted rows.
Status BuildLexTable(sql::Database* db, const rdf::Dictionary& dict,
                     const std::string& table);

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_BACKEND_UTIL_H_
