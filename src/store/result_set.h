#ifndef RDFREL_STORE_RESULT_SET_H_
#define RDFREL_STORE_RESULT_SET_H_

/// \file result_set.h
/// Decoded SPARQL results: named variables over rows of optional RDF terms
/// (nullopt == unbound), plus the post-filter evaluator used for FILTERs
/// that the SQL subset cannot express (REGEX).

#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace rdfrel::store {

/// One solution: values parallel to ResultSet::vars.
using Binding = std::vector<std::optional<rdf::Term>>;

struct ResultSet {
  std::vector<std::string> vars;
  std::vector<Binding> rows;

  size_t size() const { return rows.size(); }
  /// Pretty table for examples/debugging.
  std::string ToString(size_t max_rows = 20) const;
};

/// Evaluates a FILTER expression against one solution with SPARQL's
/// three-valued logic: true only when the expression is true, so errors
/// (unbound operands, type mismatches) drop the row. REGEX is
/// simplified to case-sensitive substring search, which covers the patterns
/// used by the bundled benchmark workloads.
Result<bool> EvalFilterOnBinding(const sparql::FilterExpr& f,
                                 const std::vector<std::string>& vars,
                                 const Binding& row);

/// Filters \p rows (bindings over \p vars) in place, keeping rows on which
/// every filter is true. Filters are row-local, so the streaming path may
/// apply them block by block.
Status ApplyPostFiltersToRows(
    const std::vector<const sparql::FilterExpr*>& filters,
    const std::vector<std::string>& vars, std::vector<Binding>* rows);

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_RESULT_SET_H_
