#include "store/result_set.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace rdfrel::store {

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i) out += " | ";
    out += "?" + vars[i];
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i) out += " | ";
      out += rows[r][i].has_value() ? rows[r][i]->ToNTriples() : "UNBOUND";
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

namespace {

using sparql::FilterExpr;
using sparql::FilterOp;

/// Value of an operand: a term, or nullopt when the operand is an unbound
/// variable.
Result<std::optional<rdf::Term>> OperandValue(
    const FilterExpr& f, const std::vector<std::string>& vars,
    const Binding& row) {
  if (f.op == FilterOp::kTerm) return std::optional<rdf::Term>(f.term);
  if (f.op == FilterOp::kVar) {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == f.var) return row[i];
    }
    return std::optional<rdf::Term>();  // projected-away: unbound
  }
  return Status::Unsupported("nested expression as FILTER operand");
}

/// SPARQL's three-valued filter logic: an error (unbound operand, type
/// mismatch) drops the row at the top of a FILTER but propagates through
/// `!`, where a FALSE would turn into a kept row.
enum class Truth { kTrue, kFalse, kError };

Truth Of(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

/// Three-way order of two terms SPARQL can compare (§17.4.1.7): numbers by
/// value, strings by lexical form. nullopt for any other pair.
std::optional<int> CompareValues(const rdf::Term& a, const rdf::Term& b) {
  const std::optional<double> na = rdf::NumericValue(a);
  const std::optional<double> nb = rdf::NumericValue(b);
  if (na.has_value() && nb.has_value()) {
    return *na < *nb ? -1 : (*na > *nb ? 1 : 0);
  }
  if (rdf::IsStringLiteral(a) && rdf::IsStringLiteral(b)) {
    const int c = a.lexical().compare(b.lexical());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return std::nullopt;
}

/// SPARQL `=`: comparable values by value; otherwise RDFterm-equal, which
/// is a type error for two unequal literals.
Truth TermsEqual(const rdf::Term& a, const rdf::Term& b) {
  if (a == b) return Truth::kTrue;
  if (const std::optional<int> c = CompareValues(a, b)) return Of(*c == 0);
  return a.is_literal() && b.is_literal() ? Truth::kError : Truth::kFalse;
}

Result<Truth> Eval(const FilterExpr& f, const std::vector<std::string>& vars,
                   const Binding& row) {
  switch (f.op) {
    case FilterOp::kAnd:
    case FilterOp::kOr: {
      RDFREL_ASSIGN_OR_RETURN(Truth a, Eval(*f.lhs, vars, row));
      RDFREL_ASSIGN_OR_RETURN(Truth b, Eval(*f.rhs, vars, row));
      const Truth dominant =
          f.op == FilterOp::kAnd ? Truth::kFalse : Truth::kTrue;
      if (a == dominant || b == dominant) return dominant;
      if (a == Truth::kError || b == Truth::kError) return Truth::kError;
      return a;
    }
    case FilterOp::kNot: {
      RDFREL_ASSIGN_OR_RETURN(Truth a, Eval(*f.lhs, vars, row));
      if (a == Truth::kError) return a;
      return Of(a == Truth::kFalse);
    }
    case FilterOp::kBound: {
      for (size_t i = 0; i < vars.size(); ++i) {
        if (vars[i] == f.var) return Of(row[i].has_value());
      }
      return Truth::kFalse;
    }
    case FilterOp::kRegex: {
      RDFREL_ASSIGN_OR_RETURN(auto v, OperandValue(*f.lhs, vars, row));
      if (!v.has_value()) return Truth::kError;
      return Of(v->lexical().find(f.pattern) != std::string::npos);
    }
    case FilterOp::kEq:
    case FilterOp::kNe:
    case FilterOp::kLt:
    case FilterOp::kLe:
    case FilterOp::kGt:
    case FilterOp::kGe: {
      RDFREL_ASSIGN_OR_RETURN(auto a, OperandValue(*f.lhs, vars, row));
      RDFREL_ASSIGN_OR_RETURN(auto b, OperandValue(*f.rhs, vars, row));
      if (!a.has_value() || !b.has_value()) return Truth::kError;
      if (f.op == FilterOp::kEq || f.op == FilterOp::kNe) {
        const Truth eq = TermsEqual(*a, *b);
        if (eq == Truth::kError || f.op == FilterOp::kEq) return eq;
        return Of(eq == Truth::kFalse);
      }
      const std::optional<int> cmp = CompareValues(*a, *b);
      if (!cmp.has_value()) return Truth::kError;
      switch (f.op) {
        case FilterOp::kLt: return Of(*cmp < 0);
        case FilterOp::kLe: return Of(*cmp <= 0);
        case FilterOp::kGt: return Of(*cmp > 0);
        default: return Of(*cmp >= 0);
      }
    }
    case FilterOp::kVar:
    case FilterOp::kTerm:
      return Status::Unsupported("bare operand as boolean FILTER");
  }
  return Status::Internal("unhandled filter op");
}

}  // namespace

Result<bool> EvalFilterOnBinding(const FilterExpr& f,
                                 const std::vector<std::string>& vars,
                                 const Binding& row) {
  RDFREL_ASSIGN_OR_RETURN(Truth t, Eval(f, vars, row));
  return t == Truth::kTrue;
}

Status ApplyPostFiltersToRows(
    const std::vector<const sparql::FilterExpr*>& filters,
    const std::vector<std::string>& vars, std::vector<Binding>* rows) {
  if (filters.empty()) return Status::OK();
  std::vector<Binding> kept;
  kept.reserve(rows->size());
  for (auto& row : *rows) {
    bool pass = true;
    for (const auto* f : filters) {
      RDFREL_ASSIGN_OR_RETURN(bool ok, EvalFilterOnBinding(*f, vars, row));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(std::move(row));
  }
  *rows = std::move(kept);
  return Status::OK();
}

}  // namespace rdfrel::store
