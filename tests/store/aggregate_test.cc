/// SPARQL 1.1 aggregate queries end-to-end (the paper's future-work item):
/// COUNT/SUM/MIN/MAX/AVG with GROUP BY over the DB2RDF store and the
/// baselines.

#include <gtest/gtest.h>

#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

rdf::Graph CompanyGraph() {
  rdf::Graph g;
  auto iri = [](const std::string& s) { return Term::Iri("http://a/" + s); };
  auto lit = [](const std::string& s) { return Term::Literal(s); };
  auto integer = [](const std::string& s) {
    return Term::TypedLiteral(s, "http://www.w3.org/2001/XMLSchema#integer");
  };
  // Two industries; employee counts are numeric literals.
  g.Add({iri("IBM"), iri("industry"), lit("tech")});
  g.Add({iri("IBM"), iri("employees"), integer("300")});
  g.Add({iri("Google"), iri("industry"), lit("tech")});
  g.Add({iri("Google"), iri("employees"), integer("200")});
  g.Add({iri("Shell"), iri("industry"), lit("energy")});
  g.Add({iri("Shell"), iri("employees"), integer("90")});
  g.Add({iri("BP"), iri("industry"), lit("energy")});
  // BP has no employee count.
  return g;
}

constexpr const char* kPrefix = "PREFIX : <http://a/> ";

class AggregateQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = RdfStore::Load(CompanyGraph());
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    store_ = std::move(*s);
  }
  std::unique_ptr<RdfStore> store_;
};

TEST_F(AggregateQueryTest, GlobalCount) {
  auto r = store_->Query(std::string(kPrefix) +
                         "SELECT (COUNT(?c) AS ?n) WHERE { ?c :industry "
                         "?i }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->rows[0][0]->lexical(), "4");
}

TEST_F(AggregateQueryTest, CountStarAndDistinct) {
  auto r = store_->Query(std::string(kPrefix) +
                         "SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?i) AS "
                         "?k) WHERE { ?c :industry ?i }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->rows[0][0]->lexical(), "4");
  EXPECT_EQ(r->rows[0][1]->lexical(), "2");
}

TEST_F(AggregateQueryTest, GroupByWithNumericAggregates) {
  auto r = store_->Query(
      std::string(kPrefix) +
      "SELECT ?i (COUNT(?c) AS ?n) (SUM(?e) AS ?total) (MAX(?e) AS ?top) "
      "WHERE { ?c :industry ?i OPTIONAL { ?c :employees ?e } } "
      "GROUP BY ?i ORDER BY ?i");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  // Groups ordered by industry id (load order): tech first, then energy.
  std::map<std::string, std::vector<std::string>> by_industry;
  for (const auto& row : r->rows) {
    std::vector<std::string> vals;
    for (size_t i = 1; i < row.size(); ++i) {
      vals.push_back(row[i].has_value() ? row[i]->lexical() : "UNBOUND");
    }
    by_industry[row[0]->lexical()] = vals;
  }
  ASSERT_TRUE(by_industry.count("tech"));
  EXPECT_EQ(by_industry["tech"][0], "2");    // companies
  EXPECT_EQ(by_industry["tech"][1], "500");  // SUM employees
  EXPECT_EQ(by_industry["tech"][2], "300");  // MAX employees
  ASSERT_TRUE(by_industry.count("energy"));
  EXPECT_EQ(by_industry["energy"][0], "2");
  EXPECT_EQ(by_industry["energy"][1], "90");  // BP unbound: skipped
}

TEST_F(AggregateQueryTest, AvgIsDecimal) {
  auto r = store_->Query(std::string(kPrefix) +
                         "SELECT (AVG(?e) AS ?avg) WHERE { ?c :employees "
                         "?e }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->rows[0][0]->datatype(),
            "http://www.w3.org/2001/XMLSchema#decimal");
  EXPECT_NEAR(std::stod(r->rows[0][0]->lexical()), 196.6667, 0.01);
}

TEST_F(AggregateQueryTest, UngroupedProjectionRejected) {
  auto st = store_
                ->Query(std::string(kPrefix) +
                        "SELECT ?c (COUNT(?i) AS ?n) WHERE { ?c :industry "
                        "?i }")
                .status();
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(AggregateQueryTest, BaselineAgreesOnAggregates) {
  auto triple = TripleStoreBackend::Load(CompanyGraph());
  ASSERT_TRUE(triple.ok());
  std::string q = std::string(kPrefix) +
                  "SELECT ?i (COUNT(?c) AS ?n) WHERE { ?c :industry ?i } "
                  "GROUP BY ?i";
  auto a = store_->Query(q);
  auto b = (*triple)->Query(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), b->size());
  std::set<std::string> sa, sb;
  for (const auto& row : a->rows) {
    sa.insert(row[0]->lexical() + "|" + row[1]->lexical());
  }
  for (const auto& row : b->rows) {
    sb.insert(row[0]->lexical() + "|" + row[1]->lexical());
  }
  EXPECT_EQ(sa, sb);
}

TEST_F(AggregateQueryTest, CountOverEmptyPattern) {
  auto r = store_->Query(std::string(kPrefix) +
                         "SELECT (COUNT(?x) AS ?n) WHERE { ?x :nothere ?y "
                         "}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->rows[0][0]->lexical(), "0");
}

}  // namespace
}  // namespace rdfrel::store
