/// Unit tests of the reference SPARQL evaluator against hand-computed
/// answers on a small graph. The evaluator is the oracle the stores are
/// checked against (tests/store/differential_test.cc), so its own answers
/// are pinned here independently of any store.

#include "reference/reference_eval.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rdfrel::reference {
namespace {

using rdf::Term;

constexpr char kPrefix[] = "PREFIX : <http://ex/> ";

Term Ex(const std::string& local) { return Term::Iri("http://ex/" + local); }

/// alice knows bob and carol, bob knows carol, carol knows alice; bob has
/// an age, alice a name, carol points at herself. The first triple is
/// added twice: an RDF graph is a set, so it must count once.
rdf::Graph SmallGraph() {
  rdf::Graph g;
  g.Add({Ex("alice"), Ex("knows"), Ex("bob")});
  g.Add({Ex("alice"), Ex("knows"), Ex("carol")});
  g.Add({Ex("bob"), Ex("knows"), Ex("carol")});
  g.Add({Ex("carol"), Ex("knows"), Ex("alice")});
  g.Add({Ex("bob"), Ex("age"), Term::Literal("30")});
  g.Add({Ex("carol"), Ex("self"), Ex("carol")});
  g.Add({Ex("alice"), Ex("name"), Term::Literal("Alice")});
  g.Add({Ex("alice"), Ex("knows"), Ex("bob")});
  return g;
}

/// Rows rendered as "a|b" with local names (or "U" for unbound), sorted:
/// an order-insensitive bag.
std::vector<std::string> Rows(const Solutions& s) {
  std::vector<std::string> out;
  for (const auto& row : s.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) line += "|";
      if (!row[i].has_value()) {
        line += "U";
      } else if (row[i]->is_literal()) {
        line += "\"" + row[i]->lexical() + "\"";
      } else {
        line += row[i]->lexical().substr(std::string("http://ex/").size());
      }
    }
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ReferenceEvalTest : public ::testing::Test {
 protected:
  Solutions Run(const std::string& where) {
    auto r = Evaluate(graph_, std::string(kPrefix) + where);
    EXPECT_TRUE(r.ok()) << where << "\n" << r.status().ToString();
    return r.ok() ? *r : Solutions{};
  }

  rdf::Graph graph_ = SmallGraph();
};

TEST_F(ReferenceEvalTest, DuplicateGraphTriplesCountOnce) {
  EXPECT_EQ(Rows(Run("SELECT ?y WHERE { :alice :knows ?y }")),
            (std::vector<std::string>{"bob", "carol"}));
}

TEST_F(ReferenceEvalTest, GroupJoinsOnSharedVariable) {
  EXPECT_EQ(Rows(Run("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z }")),
            (std::vector<std::string>{"alice|alice", "alice|carol",
                                      "bob|alice", "carol|bob",
                                      "carol|carol"}));
}

TEST_F(ReferenceEvalTest, OptionalLeavesVariableUnboundAndKeepsBag) {
  // alice matches twice (two knows triples) and has no age: two rows with
  // ?a unbound — bag semantics, not a set.
  Solutions s =
      Run("SELECT ?x ?a WHERE { ?x :knows ?y OPTIONAL { ?x :age ?a } }");
  EXPECT_EQ(s.vars, (std::vector<std::string>{"x", "a"}));
  EXPECT_EQ(Rows(s), (std::vector<std::string>{"alice|U", "alice|U",
                                               "bob|\"30\"", "carol|U"}));
}

TEST_F(ReferenceEvalTest, UnionWithDisjointVariables) {
  Solutions s = Run("SELECT * WHERE { { ?x :age ?a } UNION { ?y :name ?n } }");
  EXPECT_EQ(s.vars, (std::vector<std::string>{"x", "a", "y", "n"}));
  EXPECT_EQ(Rows(s), (std::vector<std::string>{"U|U|alice|\"Alice\"",
                                               "bob|\"30\"|U|U"}));
}

TEST_F(ReferenceEvalTest, FilterNotBoundKeepsRowsWithoutOptionalMatch) {
  EXPECT_EQ(Rows(Run("SELECT ?x WHERE { ?x :knows ?y "
                     "OPTIONAL { ?x :age ?a } FILTER (!BOUND(?a)) }")),
            (std::vector<std::string>{"alice", "alice", "carol"}));
}

TEST_F(ReferenceEvalTest, RepeatedVariableWithinTriple) {
  EXPECT_EQ(Rows(Run("SELECT ?x ?p WHERE { ?x ?p ?x }")),
            (std::vector<std::string>{"carol|self"}));
}

TEST_F(ReferenceEvalTest, VariablePredicate) {
  EXPECT_EQ(Rows(Run("SELECT ?p ?o WHERE { :bob ?p ?o }")),
            (std::vector<std::string>{"age|\"30\"", "knows|carol"}));
}

TEST_F(ReferenceEvalTest, UnknownConstantMatchesNothing) {
  EXPECT_TRUE(Run("SELECT ?y WHERE { :nobody :knows ?y }").rows.empty());
}

TEST_F(ReferenceEvalTest, FilterInsideOptionalIsTheLeftJoinCondition) {
  // The inner FILTER sees ?x from the outer side. Applied inside the
  // optional group alone, ?x would be unbound and every row would lose its
  // ?z.
  EXPECT_EQ(Rows(Run("SELECT ?x ?z WHERE { ?x :knows ?y "
                     "OPTIONAL { ?y :knows ?z FILTER (?x = :alice) } }")),
            (std::vector<std::string>{"alice|alice", "alice|carol", "bob|U",
                                      "carol|U"}));
}

TEST_F(ReferenceEvalTest, ComparisonWithUnboundOperandIsAnError) {
  // ?a != "31" is an error (not true) where ?a is unbound.
  EXPECT_EQ(Rows(Run("SELECT ?x WHERE { ?x :knows ?y "
                     "OPTIONAL { ?x :age ?a } FILTER (?a != \"31\") }")),
            (std::vector<std::string>{"bob"}));
}

TEST_F(ReferenceEvalTest, OrAndAndFollowThreeValuedLogic) {
  // error || true is true; error || false stays an error (row dropped).
  EXPECT_EQ(Rows(Run("SELECT DISTINCT ?x WHERE { ?x :knows ?y "
                     "OPTIONAL { ?x :age ?a } "
                     "FILTER (?a = \"30\" || ?x = :carol) }")),
            (std::vector<std::string>{"bob", "carol"}));
  // error && false is false, so its negation holds (alice); error && true
  // stays an error through the negation (carol is dropped).
  EXPECT_EQ(Rows(Run("SELECT DISTINCT ?x WHERE { ?x :knows ?y "
                     "OPTIONAL { ?x :age ?a } "
                     "FILTER (!(?a = \"30\" && ?x = :carol)) }")),
            (std::vector<std::string>{"alice", "bob"}));
}

TEST_F(ReferenceEvalTest, DistinctCollapsesProjectedDuplicates) {
  EXPECT_EQ(Rows(Run("SELECT DISTINCT ?x WHERE { ?x :knows ?y }")),
            (std::vector<std::string>{"alice", "bob", "carol"}));
}

TEST_F(ReferenceEvalTest, ConstructsOutsideTheSubsetAreUnsupported) {
  for (const char* q : {
           "SELECT (COUNT(*) AS ?c) WHERE { ?x :knows ?y }",
           "SELECT ?x WHERE { ?x :knows ?y } ORDER BY ?x",
           "SELECT ?x WHERE { ?x :knows ?y } LIMIT 1",
           "SELECT ?x WHERE { ?x :knows+ ?y }",
           // Rejected even though the pattern matches nothing.
           "SELECT ?n WHERE { :nobody :name ?n FILTER (REGEX(?n, \"A\")) }",
           "SELECT ?a WHERE { ?x :age ?a FILTER (?a < \"4\") }",
       }) {
    auto r = Evaluate(graph_, std::string(kPrefix) + q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_TRUE(r.status().IsUnsupported()) << q << "\n"
                                            << r.status().ToString();
  }
}

}  // namespace
}  // namespace rdfrel::reference
