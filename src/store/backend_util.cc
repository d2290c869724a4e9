#include "store/backend_util.h"

#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include <set>
#include <sstream>
#include <thread>

#include "opt/flow_tree.h"
#include "opt/plan_verifier.h"
#include "util/verify.h"

namespace rdfrel::store {

std::string PlanCacheKey(std::string_view sparql, const QueryOptions& opts) {
  std::string key;
  key.reserve(sparql.size() + 4);
  key.append(sparql);
  key.push_back('\x1f');
  key.push_back(static_cast<char>('0' + static_cast<int>(opts.flow)));
  key.push_back(opts.late_fusing ? '1' : '0');
  key.push_back(opts.merging ? '1' : '0');
  key.push_back(opts.verify_plans ? '1' : '0');
  return key;
}

namespace {

Result<opt::FlowTree> BuildFlowTree(const opt::DataFlowGraph& dfg,
                                    FlowMode mode) {
  switch (mode) {
    case FlowMode::kGreedy:
      return opt::GreedyFlowTree(dfg);
    case FlowMode::kExhaustive:
      return opt::ExhaustiveFlowTree(dfg, 10);
    case FlowMode::kParseOrder:
      return opt::ParseOrderFlowTree(dfg);
  }
  return Status::Internal("unknown flow mode");
}

}  // namespace

Result<opt::ExecNodePtr> OptimizeForBackend(const sparql::Query& query,
                                            const opt::Statistics& stats,
                                            const rdf::Dictionary& dict,
                                            const QueryOptions& opts) {
  const bool verify = opts.verify_plans || util::VerifyPlansEnabled();
  opt::CostModel cost(&stats, &dict);
  opt::DataFlowGraph dfg = opt::DataFlowGraph::Build(query, cost);
  RDFREL_ASSIGN_OR_RETURN(opt::FlowTree flow,
                          BuildFlowTree(dfg, opts.flow));
  if (verify) {
    RDFREL_RETURN_NOT_OK(opt::VerifyFlowTree(
        dfg, flow,
        opts.flow == FlowMode::kParseOrder
            ? opt::FlowVerifyLevel::kRelaxed
            : opt::FlowVerifyLevel::kStrict));
  }
  RDFREL_ASSIGN_OR_RETURN(opt::ExecNodePtr plan,
                          opt::BuildExecTree(query, flow, opts.late_fusing));
  if (verify) {
    // Baseline layouts have no DPH/RPH schema; the structural checks still
    // apply with an empty context.
    RDFREL_RETURN_NOT_OK(opt::VerifyExecTree(*plan, query, {}));
  }
  return plan;
}

Result<SparqlStore::Explanation> ExplainForBackend(
    const sparql::Query& query, const opt::Statistics& stats,
    const rdf::Dictionary& dict, const QueryOptions& opts,
    const SqlBuildFn& build, sql::Database* db) {
  SparqlStore::Explanation ex;
  ex.parse_tree = query.where->ToString();
  opt::CostModel cost(&stats, &dict);
  opt::DataFlowGraph dfg = opt::DataFlowGraph::Build(query, cost);
  RDFREL_ASSIGN_OR_RETURN(opt::FlowTree flow,
                          BuildFlowTree(dfg, opts.flow));
  ex.flow_tree = flow.ToString();
  RDFREL_ASSIGN_OR_RETURN(opt::ExecNodePtr plan,
                          opt::BuildExecTree(query, flow, opts.late_fusing));
  ex.exec_tree = plan->ToString();
  ex.plan_tree = ex.exec_tree;  // baselines never merge stars
  RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                          build(query, *plan));
  ex.sql = std::move(tq.sql);
  if (db != nullptr) {
    // Execute once with profiling to expose per-operator rows/batches/time
    // (including Exchange morsel/worker counters when opts ask for threads).
    const sql::ExecOptions exec = ExecOptionsFromQueryOptions(opts);
    RDFREL_RETURN_NOT_OK(
        db->QueryProfiled(ex.sql, &ex.exec_stats, &exec).status());
  }
  return ex;
}

Result<std::shared_ptr<const CachedPlan>> TranslateForBackend(
    sparql::Query query, const opt::Statistics& stats,
    const rdf::Dictionary& dict, const QueryOptions& opts,
    const SqlBuildFn& build) {
  RDFREL_ASSIGN_OR_RETURN(opt::ExecNodePtr exec,
                          OptimizeForBackend(query, stats, dict, opts));
  RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                          build(query, *exec));
  auto plan = std::make_shared<CachedPlan>();
  // The post-filter pointers reach into heap-allocated FILTER nodes of the
  // AST, so moving the Query into the plan keeps them valid.
  plan->query = std::move(query);
  plan->sql = std::move(tq.sql);
  plan->post_filters = std::move(tq.post_filters);
  plan->post_filter_vars = std::move(tq.post_filter_vars);
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

namespace {

/// Converts one SQL output value to an RDF term. Aggregate columns hold
/// numbers, not dictionary ids.
Result<std::optional<rdf::Term>> DecodeCell(const sql::Value& v,
                                            sparql::AggKind agg,
                                            const rdf::Dictionary& dict) {
  if (v.is_null()) return std::optional<rdf::Term>();
  if (agg != sparql::AggKind::kNone) {
    if (v.is_int()) {
      return std::optional<rdf::Term>(rdf::Term::TypedLiteral(
          std::to_string(v.AsInt()),
          "http://www.w3.org/2001/XMLSchema#integer"));
    }
    if (v.is_double()) {
      std::ostringstream os;
      os << v.AsDouble();
      return std::optional<rdf::Term>(rdf::Term::TypedLiteral(
          os.str(), "http://www.w3.org/2001/XMLSchema#decimal"));
    }
  }
  RDFREL_ASSIGN_OR_RETURN(rdf::Term term,
                          dict.Decode(static_cast<uint64_t>(v.AsInt())));
  return std::optional<rdf::Term>(std::move(term));
}

/// Per-output-column aggregate kinds for decoding.
std::vector<sparql::AggKind> ColumnAggKinds(const sparql::Query& query,
                                            size_t num_cols) {
  std::vector<sparql::AggKind> kinds(num_cols, sparql::AggKind::kNone);
  if (query.HasAggregates()) {
    for (size_t i = 0; i < query.projection.size() && i < num_cols; ++i) {
      kinds[i] = query.projection[i].agg;
    }
  }
  return kinds;
}

}  // namespace

sql::ExecControl ControlFromOptions(const QueryOptions& opts) {
  sql::ExecControl control;
  if (opts.deadline.has_value()) {
    control.deadline = *opts.deadline;
    control.has_deadline = true;
  }
  control.cancel = opts.cancel;
  return control;
}

sql::ExecOptions ExecOptionsFromQueryOptions(const QueryOptions& opts) {
  sql::ExecOptions exec;
  if (opts.max_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    exec.max_threads = hw == 0 ? 1 : hw;
  } else {
    exec.max_threads = opts.max_threads;
    // An explicit degree is a request, not a hint: drop the small-input
    // cutoff so tests get parallel plans on tiny data.
    if (opts.max_threads > 1) exec.parallel_min_rows = 0;
  }
  exec.morsel_rows = opts.morsel_rows;
  return exec;
}

Status ExecuteDecodedSqlStreaming(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars,
    const QueryOptions& opts, RowSink& sink) {
  const sql::ExecControl control = ControlFromOptions(opts);
  sql::ExecOptions exec = ExecOptionsFromQueryOptions(opts);
  exec.control = &control;
  // The SQL row may be wider than the projection: post_filter_vars are
  // extra trailing columns the post-filters need (sql_base.h). They are
  // decoded, filtered over, and trimmed before rows reach the sink.
  std::vector<std::string> visible = query.EffectiveSelectVars();
  const size_t visible_width = visible.size();
  std::vector<std::string> vars = visible;
  vars.insert(vars.end(), post_filter_vars.begin(), post_filter_vars.end());
  const std::vector<sparql::AggKind> kinds = ColumnAggKinds(query,
                                                            vars.size());
  // With post-filters the translator leaves the LIMIT/OFFSET slice to
  // this stage, and when it widened a DISTINCT row, the dedup too (same
  // rule as sql_base.cc Build: both count the filtered, trimmed rows).
  const bool post_slice = !post_filters.empty();
  const bool post_distinct = query.distinct && !post_filter_vars.empty();
  std::set<std::string> seen;
  int64_t skip = post_slice && query.offset.has_value() ? *query.offset : 0;
  int64_t budget = post_slice && query.limit.has_value() ? *query.limit : -1;
  RDFREL_RETURN_NOT_OK(sink.Begin(visible));
  RDFREL_RETURN_NOT_OK(db->QueryStreaming(
      sql, exec, nullptr, [&](const sql::RowBatch& batch) -> Status {
        if (budget == 0) return Status::OK();  // the slice is full
        std::vector<Binding> block;
        block.reserve(batch.ActiveSize());
        for (size_t r = 0; r < batch.ActiveSize(); ++r) {
          const sql::Row& row = batch.Active(r);
          Binding binding;
          binding.reserve(row.size());
          for (size_t i = 0; i < row.size(); ++i) {
            RDFREL_ASSIGN_OR_RETURN(
                auto cell,
                DecodeCell(row[i],
                           i < kinds.size() ? kinds[i]
                                            : sparql::AggKind::kNone,
                           dict));
            binding.push_back(std::move(cell));
          }
          block.push_back(std::move(binding));
        }
        RDFREL_RETURN_NOT_OK(
            ApplyPostFiltersToRows(post_filters, vars, &block));
        if (visible_width < vars.size()) {
          for (auto& row : block) row.resize(visible_width);
        }
        if (post_slice) {
          std::vector<Binding> kept;
          kept.reserve(block.size());
          for (auto& row : block) {
            if (post_distinct) {
              std::string sig;
              for (const auto& c : row) {
                sig += c.has_value() ? c->ToNTriples() : std::string("\x01");
                sig += '\x1f';
              }
              if (!seen.insert(std::move(sig)).second) continue;
            }
            if (skip > 0) {
              --skip;
              continue;
            }
            if (budget == 0) continue;
            if (budget > 0) --budget;
            kept.push_back(std::move(row));
          }
          block = std::move(kept);
        }
        return sink.OnRows(std::move(block));
      }));
  return sink.End();
}

Result<ResultSet> ExecuteDecodedSql(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars,
    const QueryOptions& opts) {
  CollectingSink sink;
  RDFREL_RETURN_NOT_OK(ExecuteDecodedSqlStreaming(
      db, sql, query, dict, post_filters, post_filter_vars, opts, sink));
  return sink.TakeResult();
}

Status BuildLexTable(sql::Database* db, const rdf::Dictionary& dict,
                     const std::string& table) {
  if (db->catalog().HasTable(table)) {
    RDFREL_RETURN_NOT_OK(db->catalog().DropTable(table));
  }
  RDFREL_ASSIGN_OR_RETURN(
      sql::Table * lex,
      db->catalog().CreateTable(
          table, sql::Schema({{"id", sql::ValueType::kInt64},
                              {"num", sql::ValueType::kDouble}})));
  for (uint64_t id = 1; id <= dict.size(); ++id) {
    auto term = dict.Decode(id);
    if (!term.ok()) continue;
    const std::optional<double> num = rdf::NumericValue(*term);
    if (!num.has_value()) continue;
    RDFREL_RETURN_NOT_OK(lex->Insert({sql::Value::Int(static_cast<int64_t>(id)),
                                      sql::Value::Real(*num)})
                             .status());
  }
  return lex->CreateIndex(table + "_id", "id");
}

}  // namespace rdfrel::store
