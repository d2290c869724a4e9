#ifndef RDFREL_TESTS_REFERENCE_REFERENCE_EVAL_H_
#define RDFREL_TESTS_REFERENCE_REFERENCE_EVAL_H_

/// \file reference_eval.h
/// A deliberately naive SPARQL evaluator used as the test oracle for every
/// store. It matches the parsed query directly against an rdf::Graph with
/// bag semantics, following the SPARQL 1.1 algebra (§18.5): a group folds
/// its children left to right with Join (or LeftJoin for OPTIONAL), UNION
/// concatenates, and the group's FILTERs apply to the group's result.
///
/// Nothing here touches the relational engine, the optimizer, the schema
/// layer or any store: only rdf/ (terms, dictionary, graph) and the SPARQL
/// parser are used, so a bug in the layers under test cannot also hide in
/// the oracle. Joins are nested loops over explicit solution mappings; the
/// evaluator favours obviousness over speed.
///
/// Supported: basic graph patterns (variables anywhere, repeated variables
/// within a triple), groups, UNION, OPTIONAL (an inner group's FILTERs
/// become the LeftJoin condition), FILTER with BOUND, !, =, !=, && and ||,
/// SELECT projection and DISTINCT. Anything else — aggregates, ORDER BY,
/// LIMIT/OFFSET, property paths, REGEX and ordering comparisons — is
/// reported as kUnsupported rather than approximated.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/status.h"

namespace rdfrel::reference {

/// Solutions of one query: variable names (SELECT order, or pattern order
/// for `SELECT *`) and one row per solution, nullopt meaning unbound.
struct Solutions {
  std::vector<std::string> vars;
  std::vector<std::vector<std::optional<rdf::Term>>> rows;
};

/// Evaluates \p sparql over the distinct triples of \p graph.
Result<Solutions> Evaluate(const rdf::Graph& graph, std::string_view sparql);

}  // namespace rdfrel::reference

#endif  // RDFREL_TESTS_REFERENCE_REFERENCE_EVAL_H_
