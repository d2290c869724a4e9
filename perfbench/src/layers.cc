#include "layers.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/exec_tree.h"
#include "opt/flow_tree.h"
#include "opt/merge.h"
#include "sparql/parser.h"
#include "sql/parser.h"
#include "store/backend_util.h"
#include "translate/sql_builder.h"

namespace perfbench {

namespace rs = rdfrel::store;

namespace {

/// Counts rows without keeping them: execution cost without decode or
/// result collection.
rdfrel::Status RunSql(rdfrel::sql::Database& db, const std::string& sql,
                      unsigned max_threads) {
  rs::QueryOptions opts;
  opts.max_threads = max_threads;
  const rdfrel::sql::ExecOptions exec = rs::ExecOptionsFromQueryOptions(opts);
  uint64_t rows = 0;
  return db.QueryStreaming(sql, exec, nullptr,
                           [&](const rdfrel::sql::RowBatch& batch) {
                             rows += batch.ActiveSize();
                             return rdfrel::Status::OK();
                           });
}

}  // namespace

rdfrel::Result<LayerCounts> DecomposeQuery(rs::RdfStore& store,
                                           std::string_view text,
                                           const rs::QueryOptions& opts,
                                           Tracer& tracer, int32_t parent,
                                           uint64_t request) {
  using namespace rdfrel;
  LayerCounts counts;
  counts.ops = 1;
  auto timed = [&](const char* name, auto&& fn) {
    ScopedSpan span(&tracer, name, parent, request);
    return fn();
  };

  Result<sparql::Query> query = timed(
      "sparql.parse", [&] { return sparql::ParseQuery(text); });
  RDFREL_RETURN_NOT_OK(query.status());

  const auto& dict = store.dictionary();
  const auto& schema = store.schema();
  Result<opt::ExecNodePtr> plan = timed("opt.optimize", [&] {
    opt::CostModel cost(&store.statistics(), &dict);
    opt::DataFlowGraph dfg = opt::DataFlowGraph::Build(*query, cost);
    opt::FlowTree flow = opt::GreedyFlowTree(dfg);
    Result<opt::ExecNodePtr> tree =
        opt::BuildExecTree(*query, flow, /*late_fusing=*/true);
    if (!tree.ok()) return tree;
    // The same spill test RdfStore::Translate applies before merging.
    opt::SpillCheck spill = [&](const sparql::TriplePattern& t,
                                opt::AccessMethod m) {
      if (t.predicate.is_var) return true;
      const uint64_t pid = dict.Lookup(t.predicate.term);
      const auto& spilled = m == opt::AccessMethod::kAco
                                ? schema.spilled_reverse()
                                : schema.spilled_direct();
      return spilled.count(pid) > 0;
    };
    return Result<opt::ExecNodePtr>(
        opt::MergeExecTree(std::move(*tree), dfg.tree(), spill));
  });
  RDFREL_RETURN_NOT_OK(plan.status());

  const std::map<int, std::string> no_closures;
  translate::StoreContext ctx;
  ctx.schema = &schema;
  ctx.direct_mapping = &store.direct_mapping();
  ctx.reverse_mapping = &store.reverse_mapping();
  ctx.dict = &dict;
  ctx.lex_table = "lex";  // RdfStore's name for it under the default prefix
  ctx.closure_tables = &no_closures;
  Result<translate::TranslatedQuery> tq =
      timed("translate.translate",
            [&] { return translate::BuildSqlFull(*query, **plan, ctx); });
  RDFREL_RETURN_NOT_OK(tq.status());
  counts.sql_bytes = tq->sql.size();

  RDFREL_RETURN_NOT_OK(timed("sql.parse", [&] {
                         return sql::ParseSelect(tq->sql);
                       }).status());

  sql::Database& db = store.database();
  RDFREL_RETURN_NOT_OK(timed("store.execute", [&] {
    rs::CollectingSink sink;
    Status status = rs::ExecuteDecodedSqlStreaming(
        &db, tq->sql, *query, dict, tq->post_filters, tq->post_filter_vars,
        opts, sink);
    counts.rows = sink.result().rows.size();
    return status;
  }));
  RDFREL_RETURN_NOT_OK(timed("sql.exec", [&] {
    return RunSql(db, tq->sql, opts.max_threads);
  }));
  RDFREL_RETURN_NOT_OK(timed("sql.exec_serial",
                             [&] { return RunSql(db, tq->sql, 1); }));
  return counts;
}

void EmitLayerMetrics(const std::vector<const Tracer*>& tracers,
                      const LayerCounts& counts, double served_miss_rate,
                      double traced_miss_rate, Report* report) {
  std::map<std::string, NameTotals> totals;
  for (const Tracer* t : tracers) {
    for (const auto& [name, v] : TotalsByName(t->spans())) {
      NameTotals& sum = totals[name];
      sum.self_ns += v.self_ns;
      sum.count += v.count;
    }
  }
  // Mean self time per traced operation, in ms.
  const double n = static_cast<double>(std::max<uint64_t>(counts.ops, 1));
  auto per_op = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) / n /
                                    1e6;
  };
  const double front = per_op("sparql.parse") + per_op("opt.optimize") +
                       per_op("translate.translate");
  const double sql_parse = per_op("sql.parse");
  const double execute = per_op("store.execute");
  const double exec = per_op("sql.exec");
  const double exec_serial = per_op("sql.exec_serial");
  const double query_with = per_op("store.query_with");

  report->Set("sparql.parse_ms", served_miss_rate * per_op("sparql.parse"));
  report->Set("opt.optimize_ms", served_miss_rate * per_op("opt.optimize"));
  report->Set("translate.translate_ms",
              served_miss_rate * per_op("translate.translate"));
  report->Set("translate.sql_bytes", static_cast<double>(counts.sql_bytes) / n);
  report->Set("sql.parse_ms", sql_parse);
  report->Set("sql.exec_ms", std::max(0.0, exec - sql_parse));
  report->Set("sql.exec_serial_ms", std::max(0.0, exec_serial - sql_parse));
  report->Set("sql.parallel_gain", exec > 0 ? exec_serial / exec : 0);
  report->Set("store.decode_ms", std::max(0.0, execute - exec));
  report->Set("store.result_rows", static_cast<double>(counts.rows) / n);
  report->Set("store.query_with_ms", query_with);
  // What the layers predict for one QueryWith against its traced time:
  // 1.0 means the layer times account for all of it.
  report->Set("bench.layer_coverage",
              query_with > 0
                  ? (traced_miss_rate * front + execute) / query_with
                  : 0);
}

double EmitCacheMetrics(const rdfrel::util::CacheStats& plan_before,
                        const rdfrel::util::CacheStats& plan_after,
                        const rdfrel::util::CacheStats& page_before,
                        const rdfrel::util::CacheStats& page_after,
                        Report* report) {
  const auto rate = [](uint64_t hits, uint64_t misses) {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  };
  const uint64_t hits = plan_after.hits - plan_before.hits;
  const uint64_t misses = plan_after.misses - plan_before.misses;
  report->Set("store.plan_cache_hit_rate", rate(hits, misses));
  report->Set("store.plan_cache_lookups", static_cast<double>(hits + misses));
  report->Set("store.plan_cache_evictions",
              static_cast<double>(plan_after.evictions -
                                  plan_before.evictions));
  report->Set("sql.page_cache_hit_rate",
              rate(page_after.hits - page_before.hits,
                   page_after.misses - page_before.misses));
  return hits + misses == 0 ? 0.0 : 1.0 - rate(hits, misses);
}

}  // namespace perfbench
