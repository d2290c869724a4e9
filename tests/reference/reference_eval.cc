#include "reference/reference_eval.h"

#include <cstdlib>
#include <map>
#include <set>

#include "sparql/ast.h"
#include "sparql/parser.h"

namespace rdfrel::reference {
namespace {

using sparql::FilterExpr;
using sparql::FilterOp;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::TermOrVar;

/// A solution mapping: one dictionary id per query variable, 0 = unbound
/// (dictionary ids start at 1).
using Mapping = std::vector<uint64_t>;
using Bag = std::vector<Mapping>;

/// SPARQL's three-valued filter logic: an error (unbound operand, ...)
/// behaves as false at the top of a FILTER but propagates through `!`.
enum class Truth { kTrue, kFalse, kError };

bool IsXsdNumeric(const rdf::Term& t) {
  static const std::set<std::string> kNumeric = {
      "integer", "decimal", "double", "float", "int", "long", "short",
      "byte", "nonNegativeInteger", "positiveInteger", "negativeInteger",
      "nonPositiveInteger", "unsignedInt", "unsignedLong"};
  static const std::string kXsd = "http://www.w3.org/2001/XMLSchema#";
  const std::string& dt = t.datatype();
  return t.is_literal() && dt.compare(0, kXsd.size(), kXsd) == 0 &&
         kNumeric.count(dt.substr(kXsd.size())) > 0;
}

/// RDFterm-equal, with numeric typed literals compared by value.
bool TermsEqual(const rdf::Term& a, const rdf::Term& b) {
  if (a == b) return true;
  if (IsXsdNumeric(a) && IsXsdNumeric(b)) {
    return std::strtod(a.lexical().c_str(), nullptr) ==
           std::strtod(b.lexical().c_str(), nullptr);
  }
  return false;
}

class Evaluator {
 public:
  explicit Evaluator(const rdf::Graph& graph)
      : dict_(graph.dictionary()), triples_(graph.DistinctTriples()) {}

  Result<Solutions> Run(const sparql::Query& q) {
    if (q.HasAggregates() || !q.group_by.empty()) {
      return Status::Unsupported("reference: aggregates");
    }
    if (!q.order_by.empty() || q.limit.has_value() || q.offset.has_value()) {
      return Status::Unsupported("reference: ORDER BY / LIMIT / OFFSET");
    }
    std::vector<std::string> pattern_vars;
    q.where->CollectVariables(&pattern_vars);
    for (const auto& v : pattern_vars) Slot(v);
    RDFREL_ASSIGN_OR_RETURN(Bag bag, Eval(*q.where));

    Solutions out;
    out.vars = q.EffectiveSelectVars();
    std::set<std::vector<uint64_t>> seen;
    for (const Mapping& m : bag) {
      std::vector<uint64_t> ids;
      for (const auto& v : out.vars) ids.push_back(Get(m, v));
      if (q.distinct && !seen.insert(ids).second) continue;
      std::vector<std::optional<rdf::Term>> row;
      for (uint64_t id : ids) {
        if (id == 0) {
          row.emplace_back();
          continue;
        }
        RDFREL_ASSIGN_OR_RETURN(rdf::Term t, dict_.Decode(id));
        row.emplace_back(std::move(t));
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

 private:
  /// Variable slot, allocated on first sight. Run allocates every pattern
  /// variable before evaluating, so all mappings share one width; a FILTER
  /// variable the pattern never binds has no slot and reads as unbound.
  size_t Slot(const std::string& var) {
    auto it = slots_.find(var);
    if (it != slots_.end()) return it->second;
    size_t s = slots_.size();
    slots_.emplace(var, s);
    return s;
  }

  uint64_t Get(const Mapping& m, const std::string& var) const {
    auto it = slots_.find(var);
    if (it == slots_.end()) return 0;
    return m[it->second];
  }

  Mapping Empty() const { return Mapping(slots_.size(), 0); }

  Result<Bag> Eval(const Pattern& p) {
    switch (p.kind) {
      case PatternKind::kTriple:
        return MatchTriple(p.triple);
      case PatternKind::kAnd:
        return EvalGroup(p.children, p.filters);
      case PatternKind::kOr: {
        Bag out;
        for (const auto& c : p.children) {
          RDFREL_ASSIGN_OR_RETURN(Bag b, Eval(*c));
          out.insert(out.end(), b.begin(), b.end());
        }
        return out;
      }
      case PatternKind::kOptional: {
        // A lone OPTIONAL (the parser collapses `{ OPTIONAL {..} }`).
        Bag unit{Empty()};
        return LeftJoinChild(unit, p);
      }
    }
    return Status::Internal("reference: unknown pattern kind");
  }

  /// Group semantics: fold children with Join / LeftJoin, then filter.
  Result<Bag> EvalGroup(const std::vector<sparql::PatternPtr>& children,
                        const std::vector<sparql::FilterExprPtr>& filters) {
    Bag acc{Empty()};
    for (const auto& c : children) {
      if (c->kind == PatternKind::kOptional) {
        RDFREL_ASSIGN_OR_RETURN(acc, LeftJoinChild(acc, *c));
      } else {
        RDFREL_ASSIGN_OR_RETURN(Bag rhs, Eval(*c));
        acc = Join(acc, rhs);
      }
    }
    Bag out;
    for (Mapping& m : acc) {
      RDFREL_ASSIGN_OR_RETURN(bool keep, AllHold(filters, m));
      if (keep) out.push_back(std::move(m));
    }
    return out;
  }

  /// LeftJoin(acc, inner, F) for an OPTIONAL node; FILTERs directly inside
  /// the optional group become the condition F (SPARQL 1.1 §18.2.2.5).
  Result<Bag> LeftJoinChild(const Bag& acc, const Pattern& optional) {
    const Pattern& inner = *optional.children.front();
    static const std::vector<sparql::FilterExprPtr> kNoFilters;
    const std::vector<sparql::FilterExprPtr>* cond = &kNoFilters;
    Bag rhs;
    if (inner.kind == PatternKind::kAnd) {
      RDFREL_ASSIGN_OR_RETURN(rhs, EvalGroup(inner.children, kNoFilters));
      cond = &inner.filters;
    } else {
      RDFREL_ASSIGN_OR_RETURN(rhs, Eval(inner));
    }
    Bag out;
    for (const Mapping& l : acc) {
      bool matched = false;
      for (const Mapping& r : rhs) {
        std::optional<Mapping> merged = Merge(l, r);
        if (!merged.has_value()) continue;
        RDFREL_ASSIGN_OR_RETURN(bool keep, AllHold(*cond, *merged));
        if (!keep) continue;
        matched = true;
        out.push_back(std::move(*merged));
      }
      if (!matched) out.push_back(l);
    }
    return out;
  }

  Bag MatchTriple(const sparql::TriplePattern& tp) {
    const TermOrVar* parts[3] = {&tp.subject, &tp.predicate, &tp.object};
    // Constants resolve once; an id of 0 (term not in the graph) matches
    // nothing.
    uint64_t constant[3] = {0, 0, 0};
    size_t slot[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      if (parts[i]->is_var) {
        slot[i] = Slot(parts[i]->var);
      } else {
        constant[i] = dict_.Lookup(parts[i]->term);
      }
    }
    Bag out;
    for (const rdf::EncodedTriple& t : triples_) {
      const uint64_t ids[3] = {t.subject, t.predicate, t.object};
      Mapping m = Empty();
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (!parts[i]->is_var) {
          ok = ids[i] == constant[i];
        } else if (m[slot[i]] == 0) {
          m[slot[i]] = ids[i];
        } else {
          ok = m[slot[i]] == ids[i];  // repeated variable in one triple
        }
      }
      if (ok) out.push_back(std::move(m));
    }
    return out;
  }

  /// Union of two compatible mappings, or nullopt when they disagree on a
  /// variable bound in both.
  std::optional<Mapping> Merge(const Mapping& a, const Mapping& b) const {
    Mapping m = a;
    for (size_t i = 0; i < m.size(); ++i) {
      if (m[i] == 0) {
        m[i] = b[i];
      } else if (b[i] != 0 && b[i] != m[i]) {
        return std::nullopt;
      }
    }
    return m;
  }

  Bag Join(const Bag& lhs, const Bag& rhs) const {
    Bag out;
    for (const Mapping& l : lhs) {
      for (const Mapping& r : rhs) {
        std::optional<Mapping> merged = Merge(l, r);
        if (merged.has_value()) out.push_back(std::move(*merged));
      }
    }
    return out;
  }

  Result<bool> AllHold(const std::vector<sparql::FilterExprPtr>& filters,
                       const Mapping& m) {
    for (const auto& f : filters) {
      RDFREL_ASSIGN_OR_RETURN(Truth t, Test(*f, m));
      if (t != Truth::kTrue) return false;
    }
    return true;
  }

  /// The term an operand denotes under \p m; nullopt for an unbound
  /// variable.
  Result<std::optional<rdf::Term>> Operand(const FilterExpr& f,
                                           const Mapping& m) const {
    if (f.op == FilterOp::kTerm) return std::optional<rdf::Term>(f.term);
    const uint64_t id = Get(m, f.var);
    if (id == 0) return std::optional<rdf::Term>();
    RDFREL_ASSIGN_OR_RETURN(rdf::Term t, dict_.Decode(id));
    return std::optional<rdf::Term>(std::move(t));
  }

  Result<Truth> Test(const FilterExpr& f, const Mapping& m) {
    switch (f.op) {
      case FilterOp::kBound:
        return Get(m, f.var) != 0 ? Truth::kTrue : Truth::kFalse;
      case FilterOp::kNot: {
        RDFREL_ASSIGN_OR_RETURN(Truth t, Test(*f.lhs, m));
        if (t == Truth::kError) return t;
        return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
      }
      case FilterOp::kAnd:
      case FilterOp::kOr: {
        RDFREL_ASSIGN_OR_RETURN(Truth a, Test(*f.lhs, m));
        RDFREL_ASSIGN_OR_RETURN(Truth b, Test(*f.rhs, m));
        const Truth dominant =
            f.op == FilterOp::kAnd ? Truth::kFalse : Truth::kTrue;
        if (a == dominant || b == dominant) return dominant;
        if (a == Truth::kError || b == Truth::kError) return Truth::kError;
        return a;
      }
      case FilterOp::kEq:
      case FilterOp::kNe: {
        RDFREL_ASSIGN_OR_RETURN(std::optional<rdf::Term> a, Operand(*f.lhs, m));
        RDFREL_ASSIGN_OR_RETURN(std::optional<rdf::Term> b, Operand(*f.rhs, m));
        if (!a.has_value() || !b.has_value()) return Truth::kError;
        const bool eq = TermsEqual(*a, *b);
        return eq == (f.op == FilterOp::kEq) ? Truth::kTrue : Truth::kFalse;
      }
      default:
        return Status::Internal("reference: unchecked FILTER operator");
    }
  }

  const rdf::Dictionary& dict_;
  std::vector<rdf::EncodedTriple> triples_;
  std::map<std::string, size_t> slots_;
};

Status CheckFilter(const FilterExpr& f) {
  switch (f.op) {
    case FilterOp::kBound:
      return Status::OK();
    case FilterOp::kNot:
      return CheckFilter(*f.lhs);
    case FilterOp::kAnd:
    case FilterOp::kOr:
      RDFREL_RETURN_NOT_OK(CheckFilter(*f.lhs));
      return CheckFilter(*f.rhs);
    case FilterOp::kEq:
    case FilterOp::kNe:
      for (const FilterExpr* side : {f.lhs.get(), f.rhs.get()}) {
        if (side->op != FilterOp::kVar && side->op != FilterOp::kTerm) {
          return Status::Unsupported("reference: nested FILTER operand in " +
                                     f.ToString());
        }
      }
      return Status::OK();
    default:
      return Status::Unsupported("reference: FILTER operator in " +
                                 f.ToString());
  }
}

/// Rejects, before evaluating anything, every construct outside the
/// supported subset — so an empty intermediate result cannot mask one.
Status CheckSupported(const Pattern& p) {
  if (p.kind == PatternKind::kTriple &&
      p.triple.path_mod != sparql::PathMod::kNone) {
    return Status::Unsupported("reference: property paths");
  }
  for (const auto& f : p.filters) RDFREL_RETURN_NOT_OK(CheckFilter(*f));
  for (const auto& c : p.children) RDFREL_RETURN_NOT_OK(CheckSupported(*c));
  return Status::OK();
}

}  // namespace

Result<Solutions> Evaluate(const rdf::Graph& graph, std::string_view sparql) {
  RDFREL_ASSIGN_OR_RETURN(sparql::Query q, sparql::ParseQuery(sparql));
  RDFREL_RETURN_NOT_OK(CheckSupported(*q.where));
  return Evaluator(graph).Run(q);
}

}  // namespace rdfrel::reference
