#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

/// The paper's Figure 1 DBpedia sample, IRIs under http://ex/.
rdf::Graph Figure1Graph() {
  rdf::Graph g;
  auto iri = [](const std::string& s) { return Term::Iri("http://ex/" + s); };
  auto lit = [](const std::string& s) { return Term::Literal(s); };
  g.Add({iri("CharlesFlint"), iri("born"), lit("1850")});
  g.Add({iri("CharlesFlint"), iri("died"), lit("1934")});
  g.Add({iri("CharlesFlint"), iri("founder"), iri("IBM")});
  g.Add({iri("LarryPage"), iri("born"), lit("1973")});
  g.Add({iri("LarryPage"), iri("founder"), iri("Google")});
  g.Add({iri("LarryPage"), iri("board"), iri("Google")});
  g.Add({iri("LarryPage"), iri("home"), lit("Palo Alto")});
  g.Add({iri("Android"), iri("developer"), iri("Google")});
  g.Add({iri("Android"), iri("version"), lit("4.1")});
  g.Add({iri("Android"), iri("kernel"), iri("Linux")});
  g.Add({iri("Android"), iri("preceded"), lit("4.0")});
  g.Add({iri("Android"), iri("graphics"), iri("OpenGL")});
  g.Add({iri("Google"), iri("industry"), lit("Software")});
  g.Add({iri("Google"), iri("industry"), lit("Internet")});
  g.Add({iri("Google"), iri("employees"), lit("54604")});
  g.Add({iri("Google"), iri("HQ"), iri("MountainView")});
  g.Add({iri("Google"), iri("revenue"), lit("37905")});
  g.Add({iri("IBM"), iri("industry"), lit("Software")});
  g.Add({iri("IBM"), iri("industry"), lit("Hardware")});
  g.Add({iri("IBM"), iri("industry"), lit("Services")});
  g.Add({iri("IBM"), iri("employees"), lit("433362")});
  g.Add({iri("IBM"), iri("HQ"), iri("Armonk")});
  g.Add({iri("IBM"), iri("revenue"), lit("106916")});
  return g;
}

constexpr const char* kPrefix = "PREFIX : <http://ex/> ";

/// Sorted multiset of row signatures for order-insensitive comparison.
std::multiset<std::string> Signature(const ResultSet& rs) {
  std::multiset<std::string> out;
  for (const auto& row : rs.rows) {
    std::string sig;
    for (const auto& v : row) {
      sig += v.has_value() ? v->ToNTriples() : "UNBOUND";
      sig += "\x1f";
    }
    out.insert(sig);
  }
  return out;
}

class StoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto s1 = RdfStore::Load(Figure1Graph());
    ASSERT_TRUE(s1.ok()) << s1.status().ToString();
    db2rdf_ = s1->release();
    auto s2 = TripleStoreBackend::Load(Figure1Graph());
    ASSERT_TRUE(s2.ok()) << s2.status().ToString();
    triple_ = s2->release();
    auto s3 = PredicateStoreBackend::Load(Figure1Graph());
    ASSERT_TRUE(s3.ok()) << s3.status().ToString();
    pred_ = s3->release();
  }
  static void TearDownTestSuite() {
    delete db2rdf_;
    delete triple_;
    delete pred_;
  }

  /// Runs on DB2RDF, checks count; then checks all backends agree.
  ResultSet Check(const std::string& sparql, size_t expect_rows) {
    auto r = db2rdf_->Query(sparql);
    EXPECT_TRUE(r.ok()) << sparql << "\n-> " << r.status().ToString();
    if (!r.ok()) return {};
    EXPECT_EQ(r->size(), expect_rows)
        << sparql << "\n"
        << r->ToString() << "\nSQL:\n"
        << db2rdf_->TranslateToSql(sparql).ValueOr("<err>");
    for (SparqlStore* other : {static_cast<SparqlStore*>(triple_),
                               static_cast<SparqlStore*>(pred_)}) {
      auto o = other->Query(sparql);
      EXPECT_TRUE(o.ok()) << other->name() << ": " << sparql << "\n-> "
                          << o.status().ToString();
      if (o.ok()) {
        EXPECT_EQ(Signature(*o), Signature(*r))
            << other->name() << " disagrees on " << sparql << "\nDB2RDF:\n"
            << r->ToString() << "\n" << other->name() << ":\n"
            << o->ToString();
      }
    }
    return std::move(*r);
  }

  static RdfStore* db2rdf_;
  static TripleStoreBackend* triple_;
  static PredicateStoreBackend* pred_;
};

RdfStore* StoreTest::db2rdf_ = nullptr;
TripleStoreBackend* StoreTest::triple_ = nullptr;
PredicateStoreBackend* StoreTest::pred_ = nullptr;

TEST_F(StoreTest, SingleTripleConstantObject) {
  auto rs = Check(std::string(kPrefix) +
                      "SELECT ?x WHERE { ?x :founder :IBM }",
                  1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Term::Iri("http://ex/CharlesFlint"));
}

TEST_F(StoreTest, SingleTripleConstantSubject) {
  Check(std::string(kPrefix) + "SELECT ?o WHERE { :Android :kernel ?o }", 1);
}

TEST_F(StoreTest, SubjectStarQuery) {
  // Who was born and founded something? Flint and Page.
  auto rs = Check(std::string(kPrefix) +
                      "SELECT ?x ?y WHERE { ?x :born ?b . ?x :founder ?y }",
                  2);
  std::set<std::string> founders;
  for (const auto& row : rs.rows) founders.insert(row[0]->lexical());
  EXPECT_TRUE(founders.count("http://ex/CharlesFlint"));
  EXPECT_TRUE(founders.count("http://ex/LarryPage"));
}

TEST_F(StoreTest, MultiValuedPredicateExpands) {
  // IBM has three industries.
  Check(std::string(kPrefix) + "SELECT ?i WHERE { :IBM :industry ?i }", 3);
}

TEST_F(StoreTest, ReverseAccessMultiValued) {
  // Software industry: IBM and Google.
  auto rs = Check(std::string(kPrefix) +
                      "SELECT ?c WHERE { ?c :industry \"Software\" }",
                  2);
  std::set<std::string> cs;
  for (const auto& row : rs.rows) cs.insert(row[0]->lexical());
  EXPECT_TRUE(cs.count("http://ex/IBM"));
  EXPECT_TRUE(cs.count("http://ex/Google"));
}

TEST_F(StoreTest, JoinAcrossEntities) {
  // Companies in Software whose products exist: Android develops for Google.
  Check(std::string(kPrefix) +
            "SELECT ?p ?c WHERE { ?p :developer ?c . ?c :industry "
            "\"Software\" }",
        1);
}

TEST_F(StoreTest, UnionQuery) {
  // founder-of-Google UNION board-of-Google: Page twice.
  Check(std::string(kPrefix) +
            "SELECT ?x WHERE { { ?x :founder :Google } UNION { ?x :board "
            ":Google } }",
        2);
}

TEST_F(StoreTest, OptionalPresentAndAbsent) {
  // All with revenue, optionally employees: Google and IBM both have both.
  auto rs = Check(std::string(kPrefix) +
                      "SELECT ?c ?e WHERE { ?c :revenue ?r OPTIONAL { ?c "
                      ":employees ?e } }",
                  2);
  for (const auto& row : rs.rows) EXPECT_TRUE(row[1].has_value());
  // Subjects with born, optionally a home: Flint has none -> unbound.
  auto rs2 = Check(std::string(kPrefix) +
                       "SELECT ?x ?h WHERE { ?x :born ?b OPTIONAL { ?x "
                       ":home ?h } }",
                   2);
  int unbound = 0;
  for (const auto& row : rs2.rows) {
    if (!row[1].has_value()) ++unbound;
  }
  EXPECT_EQ(unbound, 1);
}

TEST_F(StoreTest, PaperFigure6RunningExample) {
  std::string q = std::string(kPrefix) + R"(
    SELECT * WHERE {
      ?x :home "Palo Alto" .
      { ?x :founder ?y } UNION { ?x :board ?y }
      ?y :industry "Software" .
      ?z :developer ?y .
      ?y :revenue ?n .
      OPTIONAL { ?y :employees ?m }
    })";
  // Page founded Google AND sits on its board: two union branches match,
  // Android develops Google, employees present -> 2 rows.
  auto rs = Check(q, 2);
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row[0], Term::Iri("http://ex/LarryPage"));   // ?x
    EXPECT_EQ(row[1], Term::Iri("http://ex/Google"));      // ?y
    EXPECT_EQ(row[2], Term::Iri("http://ex/Android"));     // ?z
    EXPECT_EQ(row[4], Term::Literal("54604"));             // ?m
  }
}

TEST_F(StoreTest, FilterEqualityAndOrdered) {
  Check(std::string(kPrefix) +
            "SELECT ?x WHERE { ?x :born ?b . FILTER (?b = \"1850\") }",
        1);
  Check(std::string(kPrefix) +
            "SELECT ?x WHERE { ?x :born ?b . FILTER (?b > 1900) }",
        1);
  Check(std::string(kPrefix) +
            "SELECT ?c WHERE { ?c :employees ?e . FILTER (?e >= 100000 && "
            "?e < 500000) }",
        1);
}

TEST_F(StoreTest, FilterOnNeverBoundVariableIsAnError) {
  // ?nope appears only in the FILTER, so it is unbound in every solution:
  // a comparison on it is a SPARQL error, which drops the row, propagates
  // through `!`, and loses to a true operand of `||`.
  const std::string q = std::string(kPrefix) +
                        "SELECT ?x WHERE { ?x :born ?b . FILTER (";
  Check(q + "?nope != \"1850\") }", 0);
  Check(q + "?nope = ?b) }", 0);
  Check(q + "!(?nope > 1900)) }", 0);
  Check(q + "?nope = \"1850\" || BOUND(?b)) }", 2);
  Check(q + "!BOUND(?nope)) }", 2);
}

TEST_F(StoreTest, FilterBoundAfterOptional) {
  // Entities with born but NO home (Flint).
  auto rs = Check(std::string(kPrefix) +
                      "SELECT ?x WHERE { ?x :born ?b OPTIONAL { ?x :home "
                      "?h } FILTER (!BOUND(?h)) }",
                  1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Term::Iri("http://ex/CharlesFlint"));
}

TEST_F(StoreTest, RegexPostFilter) {
  auto rs = Check(std::string(kPrefix) +
                      "SELECT ?x ?h WHERE { ?x :home ?h . FILTER "
                      "(REGEX(?h, \"Palo\")) }",
                  1);
  ASSERT_EQ(rs.size(), 1u);
}

TEST_F(StoreTest, VariablePredicate) {
  // All edges out of Android: 5.
  Check(std::string(kPrefix) + "SELECT ?p ?o WHERE { :Android ?p ?o }", 5);
  // All edges into Google: developer, founder, board -> 3.
  Check(std::string(kPrefix) + "SELECT ?s ?p WHERE { ?s ?p :Google }", 3);
}

TEST_F(StoreTest, DistinctAndLimit) {
  auto all = db2rdf_->Query(std::string(kPrefix) +
                            "SELECT ?i WHERE { ?c :industry ?i }");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);  // 3 IBM + 2 Google
  auto distinct = db2rdf_->Query(
      std::string(kPrefix) + "SELECT DISTINCT ?i WHERE { ?c :industry ?i }");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->size(), 4u);  // Software shared
  auto limited = db2rdf_->Query(
      std::string(kPrefix) +
      "SELECT ?i WHERE { ?c :industry ?i } ORDER BY ?i LIMIT 2");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST_F(StoreTest, EmptyResultForUnknownConstant) {
  Check(std::string(kPrefix) + "SELECT ?x WHERE { ?x :founder :Nokia }", 0);
  Check(std::string(kPrefix) + "SELECT ?x WHERE { ?x :nothere ?y }", 0);
}

TEST_F(StoreTest, AblationsAgreeWithDefault) {
  std::string q = std::string(kPrefix) + R"(
    SELECT * WHERE {
      ?x :home "Palo Alto" .
      { ?x :founder ?y } UNION { ?x :board ?y }
      ?y :industry "Software" .
      OPTIONAL { ?y :employees ?m }
    })";
  auto base = db2rdf_->Query(q);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (QueryOptions opts :
       {QueryOptions{FlowMode::kParseOrder, true, true},
        QueryOptions{FlowMode::kGreedy, false, true},
        QueryOptions{FlowMode::kGreedy, true, false},
        QueryOptions{FlowMode::kExhaustive, true, true},
        QueryOptions{FlowMode::kParseOrder, false, false}}) {
    auto r = db2rdf_->QueryWith(q, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Signature(*r), Signature(*base))
        << "flow=" << static_cast<int>(opts.flow)
        << " late_fusing=" << opts.late_fusing
        << " merging=" << opts.merging;
  }
}

TEST_F(StoreTest, TranslatedSqlShowsCtesAndStars) {
  auto sql = db2rdf_->TranslateToSql(
      std::string(kPrefix) +
      "SELECT ?x WHERE { ?x :born ?b . ?x :founder ?y . ?x :home ?h }");
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  // A merged subject star must touch DPH exactly once.
  size_t count = 0;
  for (size_t pos = sql->find("dph AS T"); pos != std::string::npos;
       pos = sql->find("dph AS T", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << *sql;
}

TEST_F(StoreTest, ExplainShowsEveryStage) {
  auto ex = db2rdf_->Explain(
      std::string(kPrefix) +
      "SELECT * WHERE { ?x :born ?b . { ?x :founder ?y } UNION { ?x :board "
      "?y } OPTIONAL { ?y :employees ?m } }");
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_NE(ex->parse_tree.find("AND"), std::string::npos);
  EXPECT_NE(ex->parse_tree.find("OR"), std::string::npos);
  EXPECT_NE(ex->flow_tree.find("via"), std::string::npos);
  EXPECT_NE(ex->exec_tree.find("t1"), std::string::npos);
  // The OR of founder/board merges into a disjunctive star.
  EXPECT_NE(ex->plan_tree.find("STAR[OR"), std::string::npos)
      << ex->plan_tree;
  EXPECT_NE(ex->sql.find("WITH"), std::string::npos);
}

TEST_F(StoreTest, IncrementalInsertVisibleToQueries) {
  rdf::Graph g = Figure1Graph();
  auto store = RdfStore::Load(std::move(g));
  ASSERT_TRUE(store.ok());
  std::string q =
      std::string(kPrefix) + "SELECT ?x WHERE { ?x :founder :Tesla }";
  auto before = (*store)->Query(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 0u);
  ASSERT_TRUE((*store)
                  ->Insert({Term::Iri("http://ex/ElonMusk"),
                            Term::Iri("http://ex/founder"),
                            Term::Iri("http://ex/Tesla")})
                  .ok());
  auto after = (*store)->Query(q);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ(after->rows[0][0], Term::Iri("http://ex/ElonMusk"));
}

TEST_F(StoreTest, HashOnlyStoreAnswersSame) {
  rdf::Graph g = Figure1Graph();
  RdfStoreOptions opts;
  opts.use_coloring = false;
  opts.k_direct = 8;
  opts.k_reverse = 8;
  auto store = RdfStore::Load(std::move(g), opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string q = std::string(kPrefix) +
                  "SELECT ?x ?y WHERE { ?x :born ?b . ?x :founder ?y }";
  auto a = (*store)->Query(q);
  auto b = db2rdf_->Query(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Signature(*a), Signature(*b));
}

TEST_F(StoreTest, TinyKSpillStoreAnswersSame) {
  rdf::Graph g = Figure1Graph();
  RdfStoreOptions opts;
  opts.use_coloring = false;
  opts.k_direct = 2;  // forces spills (Android has 5 predicates)
  opts.k_reverse = 2;
  opts.hash_functions = 1;
  auto store = RdfStore::Load(std::move(g), opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_GT((*store)->load_stats().dph_spill_rows, 0u);
  // Star query over a spilled entity still answers correctly (merging is
  // suppressed for spilled predicates).
  std::string q =
      std::string(kPrefix) +
      "SELECT ?v ?k WHERE { :Android :version ?v . :Android :kernel ?k . "
      ":Android :graphics ?g }";
  auto a = (*store)->Query(q);
  auto b = db2rdf_->Query(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Signature(*a), Signature(*b));
  EXPECT_EQ(a->size(), 1u);
}

TEST(StoreLoadTest, BaselinesKeepDistinctTriplesWithCollidingLoaderKeys) {
  // {12070,36,12071} and {12070,42,3873} collide on the 64-bit key
  // HashCombine(HashCombine(Mix64(s), p), o); a loader that dedupes on that
  // key instead of the exact triple silently drops the second one.
  auto make_graph = [] {
    rdf::Graph g;
    for (int i = 1; i <= 13000; ++i) {
      g.dictionary().Encode(Term::Iri("http://e/" + std::to_string(i)));
    }
    g.AddEncoded({12070, 36, 12071});
    g.AddEncoded({12070, 42, 3873});
    g.AddEncoded({12070, 36, 12071});  // exact duplicate: collapses
    g.AddEncoded({5, 6, 7});
    return g;
  };
  const std::string q = "SELECT * WHERE { ?s ?p ?o }";
  auto triple = TripleStoreBackend::Load(make_graph());
  ASSERT_TRUE(triple.ok()) << triple.status().ToString();
  auto t = (*triple)->Query(q);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->size(), 3u) << t->ToString();

  auto predicate = PredicateStoreBackend::Load(make_graph());
  ASSERT_TRUE(predicate.ok()) << predicate.status().ToString();
  auto p = (*predicate)->Query(q);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->size(), 3u) << p->ToString();
}

TEST_F(StoreTest, ExplainIncludesExecutionProfile) {
  auto ex = db2rdf_->Explain(
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x :founder ?y }", {});
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_FALSE(ex->exec_stats.empty());
  EXPECT_NE(ex->exec_stats.find("rows="), std::string::npos)
      << ex->exec_stats;
  EXPECT_NE(ex->exec_stats.find("batches="), std::string::npos)
      << ex->exec_stats;
}

}  // namespace
}  // namespace rdfrel::store
