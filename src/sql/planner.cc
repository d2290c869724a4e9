#include "sql/planner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "sql/operator_verifier.h"
#include "sql/parallel.h"
#include "util/string_util.h"
#include "util/verify.h"

namespace rdfrel::sql {

namespace {

using ast::Expr;
using ast::ExprKind;
using ast::FromItem;
using ast::FromKind;
using ast::JoinType;
using ast::SelectCore;
using ast::SelectStmt;

/// Is this expression a constant literal?
const Value* AsLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral ? &e.literal : nullptr;
}

/// A WHERE conjunct with its consumption state.
struct Conjunct {
  const Expr* expr;
  bool consumed = false;
};

/// A FROM entry not yet folded into the plan: for base tables we defer
/// operator construction so joins can choose to index-probe them.
struct PendingSource {
  // Base table (kind == kTable resolving to catalog).
  const Table* table = nullptr;
  // Materialized (CTE or derived table).
  std::shared_ptr<const Materialized> mat;
  std::string label;  ///< the CTE's name (profile line); empty otherwise
  std::string alias;
  Scope scope;

  bool is_base_table() const { return table != nullptr; }
};

/// Appends every column-reference node under \p e to \p out.
void CollectRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kColumnRef) out->push_back(&e);
  for (const Expr* c : {e.lhs.get(), e.rhs.get(), e.child.get(),
                        e.else_expr.get()}) {
    if (c != nullptr) CollectRefs(*c, out);
  }
  for (const auto& b : e.branches) {
    CollectRefs(*b.when, out);
    CollectRefs(*b.then, out);
  }
  for (const auto& a : e.args) CollectRefs(*a, out);
}

/// The column references of one core, collected once before it is planned
/// (DESIGN.md §7, "Column pruning"). They point into the AST, so no name
/// is copied. A table probed through an index emits only the columns that
/// some reference other than the probe's own key and pushed predicates can
/// read.
struct CoreRefs {
  bool keep_all = false;          ///< SELECT *: nothing is pruned
  std::vector<const Expr*> refs;  ///< every column reference of the core

  CoreRefs(const SelectCore& core,
           const std::vector<ast::OrderItem>* order_by) {
    for (const auto& it : core.items) {
      if (it.star) keep_all = true;
      if (it.expr) CollectRefs(*it.expr, &refs);
    }
    for (const auto& item : core.from) {
      if (item.on) CollectRefs(*item.on, &refs);
      for (const auto& a : item.unnest_args) CollectRefs(*a, &refs);
    }
    if (core.where) CollectRefs(*core.where, &refs);
    for (const auto& g : core.group_by) CollectRefs(*g, &refs);
    if (order_by != nullptr) {
      for (const auto& o : *order_by) CollectRefs(*o.expr, &refs);
    }
  }
};

class CorePlanner {
 public:
  /// Shared cache of materialized FROM subqueries, keyed by AST node. When
  /// the parallel planner clones a core K times, every clone resolves the
  /// same subquery node — without the cache each clone would *re-execute*
  /// it (subqueries materialize during planning).
  using SubqueryCache =
      std::map<const void*, std::shared_ptr<const Materialized>>;

  /// \p refs: the references of the core this planner plans (borrowed).
  CorePlanner(const Catalog& catalog, CteEnv* env, const ExecControl* control,
              const ExecOptions* exec, SubqueryCache* subq_cache,
              const CoreRefs* refs)
      : catalog_(catalog),
        env_(env),
        control_(control),
        exec_(exec),
        subq_cache_(subq_cache),
        refs_(refs) {}

  /// Plans the FROM/WHERE join pipeline of a core — everything below the
  /// aggregate/projection tail. This is the segment the parallel executor
  /// replicates per worker (sql/parallel.h).
  Result<OperatorPtr> PlanJoinTree(const SelectCore& core) {
    // Gather WHERE conjuncts for comma-join processing.
    std::vector<Conjunct> conjuncts;
    if (core.where) {
      std::vector<const Expr*> list;
      CollectConjuncts(*core.where, &list);
      for (const Expr* e : list) conjuncts.push_back({e, false});
    }

    OperatorPtr current;        // built plan so far (may be null)
    PendingSource pending;      // deferred first base table
    bool have_pending = false;

    for (size_t i = 0; i < core.from.size(); ++i) {
      const FromItem& item = core.from[i];
      if (item.kind == FromKind::kUnnest) {
        RDFREL_RETURN_NOT_OK(
            FlushPending(&current, &pending, &have_pending, &conjuncts));
        if (!current) {
          return Status::InvalidArgument("UNNEST cannot be first in FROM");
        }
        std::vector<BoundExprPtr> args;
        for (const auto& a : item.unnest_args) {
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*a, current->scope()));
          args.push_back(std::move(b));
        }
        current = std::make_unique<UnnestOp>(std::move(current),
                                             std::move(args), item.alias,
                                             item.unnest_column);
        RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));
        continue;
      }

      RDFREL_ASSIGN_OR_RETURN(PendingSource src, ResolveSource(item));

      if (!current && !have_pending) {
        // First source: defer base tables so a later join may index-probe.
        if (src.is_base_table()) {
          pending = std::move(src);
          have_pending = true;
        } else {
          current = MakeSourceOp(src);
          RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));
        }
        continue;
      }

      // Determine the join inputs' scopes for predicate classification.
      const Scope& left_scope =
          have_pending ? pending.scope : current->scope();
      Scope combined = left_scope;
      combined.Append(src.scope);

      // Collect join predicates: explicit ON, or applicable WHERE conjuncts.
      std::vector<const Expr*> join_preds;
      if (item.on) {
        std::vector<const Expr*> list;
        CollectConjuncts(*item.on, &list);
        join_preds = std::move(list);
      } else {
        for (auto& c : conjuncts) {
          if (c.consumed) continue;
          if (!ExprCoveredByScope(*c.expr, combined)) continue;
          if (ExprCoveredByScope(*c.expr, left_scope)) continue;
          if (ExprCoveredByScope(*c.expr, src.scope)) continue;
          join_preds.push_back(c.expr);
          c.consumed = true;
        }
      }
      bool left_outer = item.join == JoinType::kLeftOuter;
      RDFREL_RETURN_NOT_OK(BuildJoin(&current, &pending, &have_pending,
                                     std::move(src), join_preds, left_outer,
                                     &conjuncts));
      RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));
    }

    RDFREL_RETURN_NOT_OK(
        FlushPending(&current, &pending, &have_pending, &conjuncts));
    if (!current) return Status::InvalidArgument("empty FROM clause");
    RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));

    for (const auto& c : conjuncts) {
      if (!c.consumed) {
        return Status::InvalidArgument("WHERE predicate references unknown "
                                       "columns: " + c.expr->ToString());
      }
    }
    return current;
  }

  /// The pieces of the non-aggregate projection tail that sit *above* the
  /// parallel exchange: sort slots (over the projected scope, including
  /// hidden __sortN columns), the visible prefix width, and the projected
  /// scope itself.
  struct ProjTail {
    size_t visible = 0;
    std::vector<int> sort_slots;
    std::vector<bool> sort_desc;
    Scope out;
  };

  /// Builds the SELECT-list projection (plus hidden ORDER BY columns) over
  /// \p current. Order-preserving per row, so it may live inside a parallel
  /// pipeline; \p tail captures what FinishProjection needs above it.
  Result<OperatorPtr> BuildProjection(
      const SelectCore& core, OperatorPtr current,
      const std::vector<ast::OrderItem>* order_by, ProjTail* tail) {
    std::vector<BoundExprPtr> exprs;
    Scope out;
    for (const auto& it : core.items) {
      if (it.star) {
        for (size_t s = 0; s < current->scope().size(); ++s) {
          auto ref = ast::MakeColumnRef(current->scope().column(s).first,
                                        current->scope().column(s).second);
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*ref, current->scope()));
          exprs.push_back(std::move(b));
          out.Add("", current->scope().column(s).second);
        }
        continue;
      }
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*it.expr, current->scope()));
      exprs.push_back(std::move(b));
      std::string name = it.alias;
      if (name.empty()) {
        name = it.expr->kind == ExprKind::kColumnRef ? it.expr->column
                                                     : "col" + std::to_string(
                                                           out.size() + 1);
      }
      out.Add("", name);
    }
    // ORDER BY handling: keys naming output columns sort on the projected
    // slot; anything else is computed from the pre-projection row as a
    // hidden column, sorted on, then trimmed away.
    size_t visible = exprs.size();
    std::vector<int> sort_slots;
    std::vector<bool> sort_desc;
    if (order_by != nullptr) {
      for (const auto& item : *order_by) {
        int slot = -1;
        if (item.expr->kind == ExprKind::kColumnRef &&
            item.expr->qualifier.empty()) {
          auto r = out.Resolve("", item.expr->column);
          if (r.ok()) slot = *r;
        }
        if (slot < 0) {
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr hidden,
                                  BindExpr(*item.expr, current->scope()));
          exprs.push_back(std::move(hidden));
          slot = out.Add("", "__sort" + std::to_string(sort_slots.size()));
        }
        sort_slots.push_back(slot);
        sort_desc.push_back(item.descending);
      }
    }

    current = std::make_unique<ProjectOp>(std::move(current),
                                          std::move(exprs), out);
    tail->visible = visible;
    tail->sort_slots = std::move(sort_slots);
    tail->sort_desc = std::move(sort_desc);
    tail->out = std::move(out);
    return current;
  }

  /// Sort + hidden-column trim + DISTINCT above the projection (or above
  /// the exchange merging parallel projections).
  OperatorPtr FinishProjection(const SelectCore& core, const ProjTail& tail,
                               OperatorPtr current) {
    if (!tail.sort_slots.empty()) {
      std::vector<BoundExprPtr> keys;
      for (int s : tail.sort_slots) keys.push_back(MakeSlotRef(s));
      current = std::make_unique<SortOp>(
          std::move(current), std::move(keys),
          std::vector<bool>(tail.sort_desc));
    }
    if (tail.out.size() > tail.visible) {
      // Trim hidden sort columns.
      std::vector<BoundExprPtr> trim;
      Scope trimmed;
      for (size_t i = 0; i < tail.visible; ++i) {
        trim.push_back(MakeSlotRef(static_cast<int>(i)));
        trimmed.Add("", tail.out.column(i).second);
      }
      current = std::make_unique<ProjectOp>(std::move(current),
                                            std::move(trim),
                                            std::move(trimmed));
    }
    if (core.distinct) {
      current = std::make_unique<DistinctOp>(std::move(current));
    }
    return current;
  }

  /// GROUP BY / aggregate planning: AggregateOp over the joined input, then
  /// a projection restoring the SELECT-list order. Non-aggregate items must
  /// textually match a GROUP BY expression; ORDER BY may reference output
  /// aliases only.
  Result<OperatorPtr> PlanAggregate(
      const SelectCore& core, OperatorPtr input,
      const std::vector<ast::OrderItem>* order_by) {
    std::vector<BoundExprPtr> keys;
    std::vector<std::string> key_strs;
    for (const auto& g : core.group_by) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr k, BindExpr(*g, input->scope()));
      keys.push_back(std::move(k));
      key_strs.push_back(g->ToString());
    }

    std::vector<AggregateOp::AggSpec> aggs;
    struct OutCol {
      bool is_key;
      size_t index;
      std::string name;
    };
    std::vector<OutCol> outs;
    for (size_t n = 0; n < core.items.size(); ++n) {
      const ast::SelectItem& it = core.items[n];
      if (it.star) {
        return Status::InvalidArgument("SELECT * with aggregates");
      }
      std::string name = it.alias;
      if (name.empty()) {
        name = it.expr != nullptr && it.expr->kind == ExprKind::kColumnRef
                   ? it.expr->column
                   : "col" + std::to_string(n + 1);
      }
      if (it.agg == ast::AggFunc::kNone) {
        std::string text = it.expr->ToString();
        size_t key_idx = key_strs.size();
        for (size_t k = 0; k < key_strs.size(); ++k) {
          if (key_strs[k] == text) {
            key_idx = k;
            break;
          }
        }
        if (key_idx == key_strs.size()) {
          return Status::InvalidArgument(
              "non-aggregate item " + text + " must appear in GROUP BY");
        }
        outs.push_back({true, key_idx, name});
        continue;
      }
      AggregateOp::AggSpec spec;
      spec.func = it.agg;
      spec.distinct = it.agg_distinct;
      if (it.expr != nullptr) {
        RDFREL_ASSIGN_OR_RETURN(spec.input,
                                BindExpr(*it.expr, input->scope()));
      }
      outs.push_back({false, aggs.size(), name});
      aggs.push_back(std::move(spec));
    }

    size_t num_keys = keys.size();
    OperatorPtr current = std::make_unique<AggregateOp>(
        std::move(input), std::move(keys), std::move(aggs));

    std::vector<BoundExprPtr> exprs;
    Scope out;
    for (const auto& oc : outs) {
      exprs.push_back(MakeSlotRef(
          static_cast<int>(oc.is_key ? oc.index : num_keys + oc.index)));
      out.Add("", oc.name);
    }
    current = std::make_unique<ProjectOp>(std::move(current),
                                          std::move(exprs), out);

    if (order_by != nullptr && !order_by->empty()) {
      std::vector<BoundExprPtr> sort_keys;
      std::vector<bool> desc;
      for (const auto& item : *order_by) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr k, BindExpr(*item.expr, out));
        sort_keys.push_back(std::move(k));
        desc.push_back(item.descending);
      }
      current = std::make_unique<SortOp>(
          std::move(current), std::move(sort_keys), std::move(desc));
    }
    if (core.distinct) {
      current = std::make_unique<DistinctOp>(std::move(current));
    }
    return current;
  }

 private:
  /// Resolves a FROM item to a pending source (base table or materialized).
  Result<PendingSource> ResolveSource(const FromItem& item) {
    PendingSource src;
    src.alias = item.alias;
    if (item.kind == FromKind::kSubquery) {
      if (subq_cache_ != nullptr) {
        auto it = subq_cache_->find(item.subquery.get());
        if (it != subq_cache_->end()) {
          src.mat = it->second;
          for (size_t i = 0; i < src.mat->scope.size(); ++i) {
            src.scope.Add(src.alias, src.mat->scope.column(i).second);
          }
          return src;
        }
      }
      RDFREL_ASSIGN_OR_RETURN(
          OperatorPtr sub,
          PlanSelect(catalog_, *item.subquery, env_, control_, exec_));
      RDFREL_ASSIGN_OR_RETURN(std::shared_ptr<Materialized> mat,
                              Materialize(sub.get(), control_));
      src.mat = mat;
      if (subq_cache_ != nullptr) {
        (*subq_cache_)[item.subquery.get()] = mat;
      }
      for (size_t i = 0; i < mat->scope.size(); ++i) {
        src.scope.Add(src.alias, mat->scope.column(i).second);
      }
      return src;
    }
    // Table name: CTE first, then catalog.
    auto cte = env_->tables.find(ToLowerAscii(item.table_name));
    if (cte != env_->tables.end()) {
      src.mat = cte->second;
      src.label = item.table_name;
      for (size_t i = 0; i < src.mat->scope.size(); ++i) {
        src.scope.Add(src.alias, src.mat->scope.column(i).second);
      }
      return src;
    }
    RDFREL_ASSIGN_OR_RETURN(Table * table,
                            catalog_.GetTable(item.table_name));
    src.table = table;
    for (const auto& col : table->schema().columns()) {
      src.scope.Add(src.alias, col.name);
    }
    return src;
  }

  /// Builds the cheapest standalone access path for a source, consuming any
  /// `col = constant` conjunct usable with an index.
  OperatorPtr MakeSourceOp(const PendingSource& src,
                           std::vector<Conjunct>* conjuncts = nullptr) {
    if (!src.is_base_table()) {
      return std::make_unique<MaterializedScanOp>(src.mat, src.alias,
                                                  src.label);
    }
    if (conjuncts != nullptr) {
      for (auto& c : *conjuncts) {
        if (c.consumed) continue;
        const Expr* e = c.expr;
        if (e->kind != ExprKind::kBinary || e->op != ast::BinaryOp::kEq) {
          continue;
        }
        const Expr* col = nullptr;
        const Value* lit = nullptr;
        if (e->lhs->kind == ExprKind::kColumnRef && AsLiteral(*e->rhs)) {
          col = e->lhs.get();
          lit = AsLiteral(*e->rhs);
        } else if (e->rhs->kind == ExprKind::kColumnRef &&
                   AsLiteral(*e->lhs)) {
          col = e->rhs.get();
          lit = AsLiteral(*e->lhs);
        }
        if (!col) continue;
        if (!src.scope.Resolve(col->qualifier, col->column).ok()) continue;
        const IndexInfo* idx = src.table->FindIndexOn(col->column);
        if (!idx) continue;
        c.consumed = true;
        return std::make_unique<IndexScanOp>(src.table, src.alias, idx, *lit,
                                             EmittedColumns(src, {e}));
      }
    }
    return std::make_unique<SeqScanOp>(src.table, src.alias);
  }

  /// Materializes the deferred base table into `current` (used when no join
  /// will probe it).
  Status FlushPending(OperatorPtr* current, PendingSource* pending,
                      bool* have_pending, std::vector<Conjunct>* conjuncts) {
    if (!*have_pending) return Status::OK();
    *current = MakeSourceOp(*pending, conjuncts);
    *have_pending = false;
    RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(current, conjuncts));
    return Status::OK();
  }

  /// Applies every unconsumed WHERE conjunct covered by the current scope.
  Status ApplyCoveredConjuncts(OperatorPtr* current,
                               std::vector<Conjunct>* conjuncts) {
    if (!*current) return Status::OK();
    for (auto& c : *conjuncts) {
      if (c.consumed) continue;
      if (!ExprCoveredByScope(*c.expr, (*current)->scope())) continue;
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*c.expr, (*current)->scope()));
      *current = std::make_unique<FilterOp>(std::move(*current),
                                            std::move(b));
      c.consumed = true;
    }
    return Status::OK();
  }

  /// Classifies one join predicate as equi (left-col = right-col across the
  /// two sides). Returns (left_expr, right_expr) or nullptrs.
  static std::pair<const Expr*, const Expr*> SplitEqui(
      const Expr& e, const Scope& left, const Scope& right) {
    if (e.kind != ExprKind::kBinary || e.op != ast::BinaryOp::kEq) {
      return {nullptr, nullptr};
    }
    bool l_in_left = ExprCoveredByScope(*e.lhs, left);
    bool l_in_right = ExprCoveredByScope(*e.lhs, right);
    bool r_in_left = ExprCoveredByScope(*e.rhs, left);
    bool r_in_right = ExprCoveredByScope(*e.rhs, right);
    if (l_in_left && !l_in_right && r_in_right && !r_in_left) {
      return {e.lhs.get(), e.rhs.get()};
    }
    if (r_in_left && !r_in_right && l_in_right && !l_in_left) {
      return {e.rhs.get(), e.lhs.get()};
    }
    return {nullptr, nullptr};
  }

  Status BuildJoin(OperatorPtr* current, PendingSource* pending,
                   bool* have_pending, PendingSource src,
                   const std::vector<const Expr*>& join_preds,
                   bool left_outer, std::vector<Conjunct>* conjuncts) {
    const Scope left_scope =
        *have_pending ? pending->scope
                      : (*current ? (*current)->scope() : Scope());
    // Split join predicates into equi pairs and residual.
    std::vector<std::pair<const Expr*, const Expr*>> equis;
    std::vector<const Expr*> residual;
    for (const Expr* e : join_preds) {
      auto [l, r] = SplitEqui(*e, left_scope, src.scope);
      if (l) {
        equis.emplace_back(l, r);
      } else {
        residual.push_back(e);
      }
    }

    // Option 1: the new source is a base table with an index on one of the
    // equi columns -> index nested-loop probe into it.
    if (src.is_base_table() && !equis.empty()) {
      for (size_t k = 0; k < equis.size(); ++k) {
        const Expr* right_col = equis[k].second;
        if (right_col->kind != ExprKind::kColumnRef) continue;
        const IndexInfo* idx = src.table->FindIndexOn(right_col->column);
        if (!idx) continue;
        RDFREL_RETURN_NOT_OK(
            FlushPending(current, pending, have_pending, conjuncts));
        RDFREL_ASSIGN_OR_RETURN(
            BoundExprPtr key, BindExpr(*equis[k].first, (*current)->scope()));
        RDFREL_ASSIGN_OR_RETURN(
            *current, ProbeJoin(std::move(*current), src, idx, right_col,
                                std::move(key), left_outer, residual,
                                OtherEquis(equis, k), /*others_first=*/false,
                                conjuncts));
        return Status::OK();
      }
    }

    // Option 2: the deferred left base table has an index on one of the equi
    // columns -> drive from the new source and probe the deferred table.
    // (Only for inner joins: reversing a LEFT OUTER join is not equivalent.)
    if (*have_pending && !left_outer && !equis.empty()) {
      for (size_t k = 0; k < equis.size(); ++k) {
        const Expr* left_col = equis[k].first;
        if (left_col->kind != ExprKind::kColumnRef) continue;
        const IndexInfo* idx = pending->table->FindIndexOn(left_col->column);
        if (!idx) continue;
        OperatorPtr outer = MakeSourceOp(src, conjuncts);
        // Apply src-only conjuncts before probing.
        for (auto& c : *conjuncts) {
          if (c.consumed) continue;
          if (!ExprCoveredByScope(*c.expr, outer->scope())) continue;
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*c.expr, outer->scope()));
          outer = std::make_unique<FilterOp>(std::move(outer), std::move(b));
          c.consumed = true;
        }
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr key,
                                BindExpr(*equis[k].second, outer->scope()));
        RDFREL_ASSIGN_OR_RETURN(
            *current, ProbeJoin(std::move(outer), *pending, idx, left_col,
                                std::move(key), /*left_outer=*/false,
                                residual, OtherEquis(equis, k),
                                /*others_first=*/true, conjuncts));
        *have_pending = false;
        return Status::OK();
      }
    }

    // Option 3: hash join on the equi keys, the ON residual ANDed into one
    // predicate bound on the joined row (either side may be a pruned
    // IndexScan).
    RDFREL_RETURN_NOT_OK(
        FlushPending(current, pending, have_pending, conjuncts));
    OperatorPtr right = MakeSourceOp(src, conjuncts);
    // Push source-only conjuncts below the join.
    for (auto& c : *conjuncts) {
      if (c.consumed) continue;
      if (!ExprCoveredByScope(*c.expr, right->scope())) continue;
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*c.expr, right->scope()));
      right = std::make_unique<FilterOp>(std::move(right), std::move(b));
      c.consumed = true;
    }
    Scope joined = (*current)->scope();
    joined.Append(right->scope());
    BoundExprPtr residual_bound;
    for (const Expr* e : residual) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, joined));
      AndInto(&residual_bound, std::move(b));
    }
    if (!equis.empty()) {
      std::vector<BoundExprPtr> lkeys, rkeys;
      for (const auto& [l, r] : equis) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr lb,
                                BindExpr(*l, (*current)->scope()));
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr rb, BindExpr(*r, right->scope()));
        lkeys.push_back(std::move(lb));
        rkeys.push_back(std::move(rb));
      }
      *current = std::make_unique<HashJoinOp>(
          std::move(*current), std::move(right), std::move(lkeys),
          std::move(rkeys), left_outer, std::move(residual_bound));
      return Status::OK();
    }
    *current = std::make_unique<NestedLoopJoinOp>(
        std::move(*current), std::move(right), left_outer,
        std::move(residual_bound));
    return Status::OK();
  }

  /// The index nested-loop join probing base table \p probed through \p idx
  /// on \p key_col, keyed by \p key per row of \p outer. ON conjuncts over
  /// \p probed alone — and, unless \p left_outer (whose WHERE filters the
  /// padded rows), such WHERE conjuncts — are tested on the stored row. The
  /// rest of \p residual and the other equi pairs \p others run on the
  /// joined row, \p others first when \p others_first. \p probed emits only
  /// the columns read above the join.
  Result<OperatorPtr> ProbeJoin(OperatorPtr outer, const PendingSource& probed,
                                const IndexInfo* idx, const Expr* key_col,
                                BoundExprPtr key, bool left_outer,
                                const std::vector<const Expr*>& residual,
                                const std::vector<const Expr*>& others,
                                bool others_first,
                                std::vector<Conjunct>* conjuncts) {
    Scope combined = outer->scope();
    combined.Append(probed.scope);
    std::vector<const Expr*> in_place;
    std::vector<const Expr*> rest;
    SplitResidual(residual, probed.scope, combined, &in_place, &rest);
    if (!left_outer) {
      TakeInnerConjuncts(probed.scope, combined, conjuncts, &in_place);
    }
    std::vector<InnerPredicate> inner;
    RDFREL_RETURN_NOT_OK(BindInner(in_place, probed.scope, &inner));
    in_place.push_back(key_col);
    std::vector<int> cols = EmittedColumns(probed, in_place);
    Scope out = outer->scope();
    out.Append(EmittedScope(probed, cols));
    const std::vector<const Expr*>* above[] = {&rest, &others};
    if (others_first) std::swap(above[0], above[1]);
    BoundExprPtr extra;
    for (const auto* list : above) {
      for (const Expr* e : *list) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, out));
        AndInto(&extra, std::move(b));
      }
    }
    return OperatorPtr(std::make_unique<IndexNLJoinOp>(
        std::move(outer), probed.table, probed.alias, idx, std::move(key),
        left_outer, std::move(extra), std::move(cols), std::move(inner)));
  }

  /// Equality ASTs for every equi pair but the \p k-th (the probe key).
  std::vector<const Expr*> OtherEquis(
      const std::vector<std::pair<const Expr*, const Expr*>>& equis,
      size_t k) {
    std::vector<const Expr*> out;
    for (size_t j = 0; j < equis.size(); ++j) {
      if (j != k) out.push_back(&MakeEqAst(equis[j]));
    }
    return out;
  }

  /// A join conjunct reading only the probed table: covered by \p inner,
  /// and by the join's \p combined scope, so pushing it cannot change how
  /// a name resolves.
  static bool InnerOnly(const Expr& e, const Scope& inner,
                        const Scope& combined) {
    return ExprCoveredByScope(e, inner) && ExprCoveredByScope(e, combined);
  }

  /// ANDs \p b into \p acc (which may be empty).
  static void AndInto(BoundExprPtr* acc, BoundExprPtr b) {
    *acc = *acc ? MakeAndExpr(std::move(*acc), std::move(b)) : std::move(b);
  }

  /// Splits an index join's ON residual: conjuncts over the probed table
  /// alone go to \p in_place (sound for LEFT joins too — ON decides what
  /// matches), the rest to \p rest.
  static void SplitResidual(const std::vector<const Expr*>& residual,
                            const Scope& inner, const Scope& combined,
                            std::vector<const Expr*>* in_place,
                            std::vector<const Expr*>* rest) {
    for (const Expr* e : residual) {
      (InnerOnly(*e, inner, combined) ? in_place : rest)->push_back(e);
    }
  }

  /// Binds \p exprs against the probed table's columns as the inner
  /// predicates of an IndexNLJoinOp.
  static Status BindInner(const std::vector<const Expr*>& exprs,
                          const Scope& inner,
                          std::vector<InnerPredicate>* out) {
    for (const Expr* e : exprs) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, inner));
      out->push_back({std::move(b), e->ToString()});
    }
    return Status::OK();
  }

  /// Hands the index join every unconsumed WHERE conjunct over the probed
  /// table alone, consuming it.
  static void TakeInnerConjuncts(const Scope& inner, const Scope& combined,
                                 std::vector<Conjunct>* conjuncts,
                                 std::vector<const Expr*>* out) {
    for (auto& c : *conjuncts) {
      if (c.consumed || !InnerOnly(*c.expr, inner, combined)) continue;
      out->push_back(c.expr);
      c.consumed = true;
    }
  }

  /// The stored columns of base table \p src that an operator reading it
  /// by index must emit: those some column reference of the core may name,
  /// other than the references inside \p in_place — the probe key and the
  /// predicates the operator tests on the stored row. A reference matches
  /// a column by name, and by qualifier when it has one, so an unqualified
  /// name keeps every column it could resolve to and binding above the
  /// operator resolves exactly as over the full table.
  std::vector<int> EmittedColumns(
      const PendingSource& src,
      const std::vector<const Expr*>& in_place) const {
    const auto& columns = src.table->schema().columns();
    std::vector<int> out;
    if (refs_->keep_all) {
      for (size_t c = 0; c < columns.size(); ++c) {
        out.push_back(static_cast<int>(c));
      }
      return out;
    }
    std::vector<const Expr*> skip;
    for (const Expr* e : in_place) CollectRefs(*e, &skip);
    for (size_t c = 0; c < columns.size(); ++c) {
      for (const Expr* r : refs_->refs) {
        if (!EqualsIgnoreCaseAscii(r->column, columns[c].name) ||
            (!r->qualifier.empty() &&
             !EqualsIgnoreCaseAscii(r->qualifier, src.alias)) ||
            std::find(skip.begin(), skip.end(), r) != skip.end()) {
          continue;
        }
        out.push_back(static_cast<int>(c));
        break;
      }
    }
    return out;
  }

  /// The scope of \p src's columns \p cols, as the operator emits them.
  static Scope EmittedScope(const PendingSource& src,
                            const std::vector<int>& cols) {
    Scope s;
    for (int c : cols) {
      s.Add(src.alias, src.scope.column(static_cast<size_t>(c)).second);
    }
    return s;
  }

  /// Builds (and owns) an equality AST node over two borrowed expressions.
  const Expr& MakeEqAst(const std::pair<const Expr*, const Expr*>& equi) {
    auto eq = std::make_unique<Expr>();
    eq->kind = ExprKind::kBinary;
    eq->op = ast::BinaryOp::kEq;
    eq->lhs = CloneExpr(*equi.first);
    eq->rhs = CloneExpr(*equi.second);
    owned_.push_back(std::move(eq));
    return *owned_.back();
  }

  static ast::ExprPtr CloneExpr(const Expr& e) {
    auto c = std::make_unique<Expr>();
    c->kind = e.kind;
    c->literal = e.literal;
    c->qualifier = e.qualifier;
    c->column = e.column;
    c->op = e.op;
    c->negated = e.negated;
    if (e.lhs) c->lhs = CloneExpr(*e.lhs);
    if (e.rhs) c->rhs = CloneExpr(*e.rhs);
    if (e.child) c->child = CloneExpr(*e.child);
    for (const auto& b : e.branches) {
      ast::CaseBranch nb;
      nb.when = CloneExpr(*b.when);
      nb.then = CloneExpr(*b.then);
      c->branches.push_back(std::move(nb));
    }
    if (e.else_expr) c->else_expr = CloneExpr(*e.else_expr);
    for (const auto& a : e.args) c->args.push_back(CloneExpr(*a));
    return c;
  }

  /// Combines two bound predicates with AND (three-valued).
  static BoundExprPtr MakeAndExpr(BoundExprPtr a, BoundExprPtr b);

  const Catalog& catalog_;
  CteEnv* env_;
  const ExecControl* control_;  ///< cancellation for subquery materialization
  const ExecOptions* exec_;     ///< parallelism for subquery bodies (may be null)
  SubqueryCache* subq_cache_;   ///< shared across pipeline clones (may be null)
  const CoreRefs* refs_;        ///< the core's references (read while planning)
  std::vector<ast::ExprPtr> owned_;
};

/// Composite AND over bound expressions (planner-internal).
class BoundAnd final : public BoundExpr {
 public:
  BoundAnd(BoundExprPtr a, BoundExprPtr b)
      : a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Evaluate(const Row& row) const override {
    RDFREL_ASSIGN_OR_RETURN(Value av, a_->Evaluate(row));
    RDFREL_ASSIGN_OR_RETURN(std::optional<bool> at, ValueTruth(av));
    if (at.has_value() && !*at) return Value::Bool(false);
    RDFREL_ASSIGN_OR_RETURN(Value bv, b_->Evaluate(row));
    RDFREL_ASSIGN_OR_RETURN(std::optional<bool> bt, ValueTruth(bv));
    if (bt.has_value() && !*bt) return Value::Bool(false);
    if (at.has_value() && bt.has_value()) return Value::Bool(true);
    return Value::Null();
  }

  void CollectSlots(std::vector<int>* out) const override {
    a_->CollectSlots(out);
    b_->CollectSlots(out);
  }

 private:
  BoundExprPtr a_;
  BoundExprPtr b_;
};

BoundExprPtr CorePlanner::MakeAndExpr(BoundExprPtr a, BoundExprPtr b) {
  return std::make_unique<BoundAnd>(std::move(a), std::move(b));
}

/// Everything a core plan borrows from planning time: the CorePlanner(s)
/// owning cloned AST nodes, and the shared subquery-materialization cache.
struct CoreKeepalive {
  std::vector<std::shared_ptr<CorePlanner>> planners;
  std::shared_ptr<CorePlanner::SubqueryCache> subq_cache;
};

/// Plans one core, parallelizing its join/projection pipeline under an
/// ExchangeOp when \p exec asks for it and the shape analysis allows it.
/// Falls back to the exact serial plan otherwise. \p *keepalive receives
/// ownership anchors the returned tree borrows from.
Result<OperatorPtr> PlanCoreWithOptions(
    const Catalog& catalog, CteEnv* env, const ExecControl* control,
    const ExecOptions* exec, const SelectCore& core,
    const std::vector<ast::OrderItem>* order_by,
    std::shared_ptr<void>* keepalive) {
  auto keep = std::make_shared<CoreKeepalive>();
  keep->subq_cache = std::make_shared<CorePlanner::SubqueryCache>();
  *keepalive = keep;
  // Collected once; every pipeline clone prunes by the same references.
  const CoreRefs refs(core, order_by);

  auto planner0 = std::make_shared<CorePlanner>(
      catalog, env, control, exec, keep->subq_cache.get(), &refs);
  keep->planners.push_back(planner0);
  RDFREL_ASSIGN_OR_RETURN(OperatorPtr root0, planner0->PlanJoinTree(core));
  const bool has_agg = core.HasAggregates();
  CorePlanner::ProjTail tail0;
  if (!has_agg) {
    RDFREL_ASSIGN_OR_RETURN(
        root0, planner0->BuildProjection(core, std::move(root0), order_by,
                                         &tail0));
  }

  // Finishes the core over \p below — either the serial pipeline or the
  // exchange merging its clones; both expose the same scope.
  auto finish = [&](OperatorPtr below) -> Result<OperatorPtr> {
    if (has_agg) {
      return planner0->PlanAggregate(core, std::move(below), order_by);
    }
    return planner0->FinishProjection(core, tail0, std::move(below));
  };

  if (exec == nullptr || exec->max_threads <= 1) {
    return finish(std::move(root0));
  }

  PipelineAnalysis a0 = AnalyzePipeline(root0.get());
  if (!a0.parallel_ok || a0.driving_units == 0 ||
      a0.driving_rows < exec->parallel_min_rows) {
    return finish(std::move(root0));
  }
  const uint64_t morsel_rows = exec->effective_morsel_rows();
  const uint64_t upm =
      std::max<uint64_t>(1, morsel_rows / std::max<uint64_t>(
                                              1, a0.rows_per_unit));
  auto dispenser =
      std::make_shared<MorselDispenser>(a0.driving_units, upm);
  const uint64_t k = std::min<uint64_t>(
      std::min<uint64_t>(exec->max_threads, 64),
      dispenser->total_morsels());
  if (k <= 1) return finish(std::move(root0));

  // One shared hash table per pass-0 join; cooperative when the build side
  // bottoms out in a morselizable scan, solo otherwise.
  std::vector<std::shared_ptr<SharedJoinBuild>> builds;
  for (size_t j = 0; j < a0.joins.size(); ++j) {
    std::shared_ptr<MorselDispenser> bd;
    if (a0.build_leaves[j] != nullptr) {
      MorselSource* leaf = a0.build_leaves[j];
      const uint64_t bupm = std::max<uint64_t>(
          1, morsel_rows / std::max<uint64_t>(1, leaf->RowsPerUnit()));
      bd = std::make_shared<MorselDispenser>(leaf->MorselUnits(), bupm);
    }
    builds.push_back(std::make_shared<SharedJoinBuild>(std::move(bd)));
    a0.joins[j]->SetSharedBuild(builds.back(), a0.build_leaves[j]);
  }

  // Replicate the pipeline: planning is deterministic, so re-planning the
  // same core yields a structurally identical tree (checked below).
  std::vector<ExchangeOp::Pipeline> pipelines;
  pipelines.push_back({std::move(root0), a0.driving});
  for (uint64_t i = 1; i < k; ++i) {
    auto p = std::make_shared<CorePlanner>(catalog, env, control, exec,
                                           keep->subq_cache.get(), &refs);
    keep->planners.push_back(p);
    RDFREL_ASSIGN_OR_RETURN(OperatorPtr r, p->PlanJoinTree(core));
    if (!has_agg) {
      CorePlanner::ProjTail t;
      RDFREL_ASSIGN_OR_RETURN(
          r, p->BuildProjection(core, std::move(r), order_by, &t));
    }
    PipelineAnalysis ai = AnalyzePipeline(r.get());
    if (!ai.parallel_ok || ai.signature != a0.signature ||
        ai.joins.size() != a0.joins.size()) {
      return Status::Internal("parallel pipeline clone shape mismatch");
    }
    for (size_t j = 0; j < ai.joins.size(); ++j) {
      ai.joins[j]->SetSharedBuild(builds[j], ai.build_leaves[j]);
    }
    pipelines.push_back({std::move(r), ai.driving});
  }

  OperatorPtr exchange = std::make_unique<ExchangeOp>(
      std::move(pipelines), std::move(dispenser), std::move(builds));
  return finish(std::move(exchange));
}

/// A pass-through operator over one child, shown under its own label in
/// profiles: "Core" above each planned core, where it also owns what the
/// core's operators borrow from planning; or "CTE <name> streamed" above
/// the plan of a last CTE that streams into the statement body, where its
/// scope carries the body's column names.
class WrapperOp final : public Operator {
 public:
  WrapperOp(std::string label, OperatorPtr inner, Scope scope,
            std::shared_ptr<void> keepalive = nullptr)
      : label_(std::move(label)),
        inner_(std::move(inner)),
        keepalive_(std::move(keepalive)) {
    scope_ = std::move(scope);
  }
  Status Open() override { return inner_->Open(); }
  std::string name() const override { return label_; }
  std::vector<Operator*> children() override { return {inner_.get()}; }
  Status VerifySelf() const override {
    if (scope_.size() != inner_->scope().size()) {
      return Status::InternalPlanError(label_ + " wrapper changes scope arity");
    }
    return Status::OK();
  }
  Status DrainTo(Materialized* out) override {
    const uint64_t start = DrainClock();
    const size_t before = out->num_rows();
    RDFREL_RETURN_NOT_OK(inner_->DrainTo(out));
    CountDrained(out->num_rows() - before, start);
    return Status::OK();
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override {
    return inner_->NextBatch(out);
  }

 private:
  std::string label_;
  OperatorPtr inner_;
  std::shared_ptr<void> keepalive_;
};

std::string IndentLines(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size() - 1;
    out += "  ";
    out.append(text, pos, nl - pos + 1);
    pos = nl + 1;
  }
  return out;
}

/// Plans and materializes one CTE body under \p env. When env->timing is
/// set, the body runs timed and its profile block goes to env->profile.
Result<std::shared_ptr<const Materialized>> MaterializeCte(
    const Catalog& catalog, const ast::CteDef& cte, CteEnv* env,
    const ExecControl* control, const ExecOptions* exec) {
  RDFREL_ASSIGN_OR_RETURN(OperatorPtr op,
                          PlanSelect(catalog, *cte.query, env, control, exec));
  if (env->timing) op->EnableTiming(true);
  const auto start = std::chrono::steady_clock::now();
  RDFREL_ASSIGN_OR_RETURN(std::shared_ptr<Materialized> mat,
                          Materialize(op.get(), control));
  if (env->timing) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " ms=%.3f\n", ms);
    env->profile += "CTE " + cte.name +
                    " materialized: rows=" + std::to_string(mat->num_rows()) +
                    buf + IndentLines(FormatOperatorStats(*op));
  }
  return std::shared_ptr<const Materialized>(std::move(mat));
}

/// Makes the names a statement's WITH defines visible in that statement
/// only: on destruction, every env entry the statement defined is put back
/// as it was (erased, or the shadowed outer definition restored). So a
/// nested WITH inside a CTE body or FROM-subquery does not leak into the
/// enclosing statement. The planned operators hold their results by
/// shared_ptr, so dropping the names after planning is safe.
class CteScope {
 public:
  CteScope(const SelectStmt& stmt, CteEnv* env) : env_(env) {
    for (const auto& cte : stmt.ctes) {
      std::string name = ToLowerAscii(cte.name);
      auto it = env_->tables.find(name);
      saved_.push_back({std::move(name), it != env_->tables.end()
                                             ? it->second
                                             : nullptr});
    }
  }
  ~CteScope() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->second == nullptr) {
        env_->tables.erase(it->first);
      } else {
        env_->tables[it->first] = it->second;
      }
    }
  }
  CteScope(const CteScope&) = delete;
  CteScope& operator=(const CteScope&) = delete;

 private:
  CteEnv* env_;
  std::vector<std::pair<std::string, std::shared_ptr<const Materialized>>>
      saved_;
};

/// Whether \p stmt's body merely renames the columns of its last CTE: one
/// core reading that CTE alone through plain column references, with no
/// WHERE, DISTINCT, GROUP BY, ORDER BY, LIMIT or OFFSET. Such a CTE is
/// streamed instead of materialized. No earlier CTE can name it, so the
/// body is its only reader.
bool StreamsLastCte(const SelectStmt& stmt) {
  if (stmt.ctes.empty() || stmt.cores.size() != 1 ||
      !stmt.order_by.empty() || stmt.limit.has_value() ||
      stmt.offset.has_value()) {
    return false;
  }
  const SelectCore& core = stmt.cores.front();
  if (core.distinct || core.where != nullptr || core.HasAggregates() ||
      core.from.size() != 1) {
    return false;
  }
  const FromItem& item = core.from.front();
  if (item.kind != FromKind::kTable ||
      ToLowerAscii(item.table_name) !=
          ToLowerAscii(stmt.ctes.back().name)) {
    return false;
  }
  for (const auto& it : core.items) {
    if (!it.star &&
        (it.expr == nullptr || it.expr->kind != ExprKind::kColumnRef)) {
      return false;
    }
  }
  return true;
}

/// Plans the last CTE as the statement body's subtree (StreamsLastCte),
/// renaming — and, unless it is the identity, reordering — its columns.
Result<OperatorPtr> PlanStreamedCte(const Catalog& catalog,
                                    const SelectStmt& stmt, CteEnv* env,
                                    const ExecControl* control,
                                    const ExecOptions* exec) {
  const ast::CteDef& cte = stmt.ctes.back();
  RDFREL_ASSIGN_OR_RETURN(OperatorPtr body,
                          PlanSelect(catalog, *cte.query, env, control, exec));
  const SelectCore& core = stmt.cores.front();
  Scope in;
  for (size_t i = 0; i < body->scope().size(); ++i) {
    in.Add(core.from.front().alias, body->scope().column(i).second);
  }
  std::vector<int> slots;
  Scope out;
  for (const auto& it : core.items) {
    if (it.star) {
      for (size_t i = 0; i < in.size(); ++i) {
        slots.push_back(static_cast<int>(i));
        out.Add("", in.column(i).second);
      }
      continue;
    }
    RDFREL_ASSIGN_OR_RETURN(int slot,
                            in.Resolve(it.expr->qualifier, it.expr->column));
    slots.push_back(slot);
    out.Add("", it.alias.empty() ? it.expr->column : it.alias);
  }
  bool identity = slots.size() == in.size();
  for (size_t i = 0; identity && i < slots.size(); ++i) {
    identity = slots[i] == static_cast<int>(i);
  }
  if (!identity) {
    std::vector<BoundExprPtr> exprs;
    for (int s : slots) exprs.push_back(MakeSlotRef(s));
    body = std::make_unique<ProjectOp>(std::move(body), std::move(exprs), out);
  }
  OperatorPtr streamed = std::make_unique<WrapperOp>(
      "CTE " + cte.name + " streamed", std::move(body), std::move(out));
  return streamed;
}

/// Plans the statement body: its cores (UNION ALL'ed), ORDER BY, LIMIT.
Result<OperatorPtr> PlanBody(const Catalog& catalog, const SelectStmt& stmt,
                             CteEnv* env, const ExecControl* control,
                             const ExecOptions* exec) {
  std::vector<OperatorPtr> cores;
  const bool single_core = stmt.cores.size() == 1;
  for (const auto& core : stmt.cores) {
    // Each core's CorePlanner(s) own cloned AST nodes its operators
    // borrow; the "Core" wrapper keeps them alive through execution.
    std::shared_ptr<void> keepalive;
    RDFREL_ASSIGN_OR_RETURN(
        OperatorPtr op,
        PlanCoreWithOptions(catalog, env, control, exec, core,
                            single_core && !stmt.order_by.empty()
                                ? &stmt.order_by
                                : nullptr,
                            &keepalive));
    Scope scope = op->scope();
    cores.push_back(std::make_unique<WrapperOp>(
        "Core", std::move(op), std::move(scope), std::move(keepalive)));
  }

  OperatorPtr root;
  if (cores.size() == 1) {
    root = std::move(cores.front());
  } else {
    size_t arity = cores.front()->scope().size();
    for (const auto& c : cores) {
      if (c->scope().size() != arity) {
        return Status::InvalidArgument(
            "UNION ALL branches have different column counts");
      }
    }
    root = std::make_unique<UnionAllOp>(std::move(cores));
  }

  if (!stmt.order_by.empty() && !single_core) {
    std::vector<BoundExprPtr> keys;
    std::vector<bool> desc;
    for (const auto& item : stmt.order_by) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr k,
                              BindExpr(*item.expr, root->scope()));
      keys.push_back(std::move(k));
      desc.push_back(item.descending);
    }
    root = std::make_unique<SortOp>(std::move(root), std::move(keys),
                                    std::move(desc));
  }
  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    root = std::make_unique<LimitOp>(std::move(root), stmt.limit,
                                     stmt.offset);
  }
  return root;
}

}  // namespace

Result<OperatorPtr> PlanSelect(const Catalog& catalog,
                               const ast::SelectStmt& stmt, CteEnv* env,
                               const ExecControl* control,
                               const ExecOptions* exec) {
  CteScope scope(stmt, env);
  // The CTEs materialize in statement order; each body runs with `exec`,
  // so its own pipeline is morsel-parallel where eligible (DESIGN.md §13).
  const bool stream_last = StreamsLastCte(stmt);
  const size_t materialized = stmt.ctes.size() - (stream_last ? 1 : 0);
  for (size_t i = 0; i < materialized; ++i) {
    const ast::CteDef& cte = stmt.ctes[i];
    RDFREL_ASSIGN_OR_RETURN(std::shared_ptr<const Materialized> mat,
                            MaterializeCte(catalog, cte, env, control, exec));
    env->tables[ToLowerAscii(cte.name)] = std::move(mat);
  }
  RDFREL_ASSIGN_OR_RETURN(
      OperatorPtr root,
      stream_last ? PlanStreamedCte(catalog, stmt, env, control, exec)
                  : PlanBody(catalog, stmt, env, control, exec));
  // Post-planning invariant gate (DESIGN.md §8). CTE subplans were already
  // verified when their recursive PlanSelect returned.
  if (util::VerifyPlansEnabled()) {
    RDFREL_RETURN_NOT_OK(VerifyOperatorTree(*root));
  }
  return root;
}

}  // namespace rdfrel::sql
