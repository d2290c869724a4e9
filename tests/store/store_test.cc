#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "benchdata/lubm.h"
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
  auto integer = [](const std::string& s) {
    return Term::TypedLiteral(s, "http://www.w3.org/2001/XMLSchema#integer");
  };
  g.Add({iri("CharlesFlint"), iri("born"), integer("1850")});
  g.Add({iri("CharlesFlint"), iri("died"), lit("1934")});
  g.Add({iri("CharlesFlint"), iri("founder"), iri("IBM")});
  g.Add({iri("LarryPage"), iri("born"), integer("1973")});
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
  g.Add({iri("Google"), iri("employees"), integer("54604")});
  g.Add({iri("Google"), iri("HQ"), iri("MountainView")});
  g.Add({iri("Google"), iri("revenue"), lit("37905")});
  g.Add({iri("IBM"), iri("industry"), lit("Software")});
  g.Add({iri("IBM"), iri("industry"), lit("Hardware")});
  g.Add({iri("IBM"), iri("industry"), lit("Services")});
  g.Add({iri("IBM"), iri("employees"), integer("433362")});
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
    EXPECT_EQ(row[4], Term::TypedLiteral(
                          "54604",
                          "http://www.w3.org/2001/XMLSchema#integer"));  // ?m
  }
}

TEST_F(StoreTest, FilterEqualityAndOrdered) {
  Check(std::string(kPrefix) +
            "SELECT ?x WHERE { ?x :born ?b . FILTER (?b = 1850) }",
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
  auto ablation = [](FlowMode flow, bool late_fusing, bool merging) {
    QueryOptions o;
    o.flow = flow;
    o.late_fusing = late_fusing;
    o.merging = merging;
    return o;
  };
  for (QueryOptions opts : {ablation(FlowMode::kParseOrder, true, true),
                            ablation(FlowMode::kGreedy, false, true),
                            ablation(FlowMode::kGreedy, true, false),
                            ablation(FlowMode::kExhaustive, true, true),
                            ablation(FlowMode::kParseOrder, false, false)}) {
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

TEST_F(StoreTest, InsertedNumbersCompareByValue) {
  auto store = RdfStore::Load(Figure1Graph());
  ASSERT_TRUE(store.ok());
  const std::string q = std::string(kPrefix) +
                        "SELECT ?c WHERE { ?c :employees ?e . FILTER (?e > "
                        "100000 && ?e < 200000) }";
  auto before = (*store)->Query(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 0u);
  // A number new to the dictionary must reach the lex table on insert.
  ASSERT_TRUE((*store)
                  ->Insert({Term::Iri("http://ex/Tesla"),
                            Term::Iri("http://ex/employees"),
                            Term::TypedLiteral(
                                "127855",
                                "http://www.w3.org/2001/XMLSchema#integer")})
                  .ok());
  auto after = (*store)->Query(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ(after->rows[0][0], Term::Iri("http://ex/Tesla"));
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

/// The profile block of CTE \p name: its header line and every line
/// indented deeper below it.
std::string CteBlock(const std::string& profile, const std::string& name) {
  const size_t head = profile.find("CTE " + name + " ");
  if (head == std::string::npos) return "";
  const size_t line_start = profile.rfind('\n', head) + 1;  // npos+1 == 0
  const size_t indent = head - line_start;
  size_t end = profile.find('\n', head);
  while (end != std::string::npos && end + 1 < profile.size()) {
    const size_t next = end + 1;
    const size_t text = profile.find_first_not_of(' ', next);
    if (text == std::string::npos || text - next <= indent) break;
    end = profile.find('\n', next);
  }
  return profile.substr(line_start, end == std::string::npos
                                        ? std::string::npos
                                        : end - line_start);
}

TEST_F(StoreTest, ExplainProfilesEveryCteOfLq9) {
  // LQ9's SQL is two CTE chains fanned out from one row each, joined by a
  // UNION ALL CTE. With four threads and tiny morsels, every CTE that a
  // materialized CTE drives runs under an Exchange, and each CTE shows as
  // its own profile block.
  benchdata::Workload lubm = benchdata::MakeLubm(1, 7);
  auto store = RdfStore::Load(lubm.graph);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string lq9;
  for (const auto& q : lubm.queries) {
    if (q.id == "LQ9") lq9 = q.sparql;
  }
  ASSERT_FALSE(lq9.empty());
  QueryOptions opts;
  opts.max_threads = 4;
  opts.morsel_rows = 2;
  auto ex = (*store)->Explain(lq9, opts);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  std::vector<std::string> names;
  for (size_t pos = 0; (pos = ex->sql.find(" AS (", pos)) != std::string::npos;
       ++pos) {
    const size_t start = ex->sql.find_last_of(" ,\n", pos - 1) + 1;
    names.push_back(ex->sql.substr(start, pos - start));
  }
  ASSERT_GE(names.size(), 3u) << ex->sql;
  size_t parallel = 0;
  for (const std::string& name : names) {
    const std::string block = CteBlock(ex->exec_stats, name);
    ASSERT_FALSE(block.empty()) << name << "\n" << ex->exec_stats;
    // A body driven by a materialized CTE of more than one 2-row morsel
    // must have run under an Exchange.
    const size_t scan = block.find("MaterializedScan(");
    if (scan == std::string::npos) continue;
    const size_t open = scan + std::string("MaterializedScan(").size();
    const std::string input = block.substr(open, block.find(')', open) - open);
    const std::string header = "CTE " + input + " materialized: rows=";
    const size_t rows_at = ex->exec_stats.find(header);
    ASSERT_NE(rows_at, std::string::npos) << input << "\n" << ex->exec_stats;
    if (std::stoull(ex->exec_stats.substr(rows_at + header.size())) <= 2) {
      continue;
    }
    EXPECT_NE(block.find("Exchange: rows="), std::string::npos)
        << name << "\n" << block;
    EXPECT_NE(block.find("morsels="), std::string::npos) << block;
    ++parallel;
  }
  EXPECT_GE(parallel, 2u) << ex->exec_stats;
  // The UNION ALL CTE is last and only renamed by the outer SELECT.
  EXPECT_NE(ex->exec_stats.find("CTE " + names.back() + " streamed"),
            std::string::npos)
      << ex->exec_stats;
}

TEST_F(StoreTest, DphProbeProfileShowsPushedPredicates) {
  // The shape of a Figure 13 CTE: probe DPH by entry from an earlier
  // result, then test the probed row's own columns. Those tests run inside
  // the join, on the stored row, so no Filter sits directly above it.
  sql::Database& db = db2rdf_->database();
  const std::string q =
      "WITH q1 AS (SELECT T.entry AS e FROM dph AS T) "
      "SELECT q1.e, T.val0 FROM dph AS T, q1 "
      "WHERE T.entry = q1.e AND T.spill = 0 AND T.pred0 IS NOT NULL";
  std::string profile;
  auto res = db.QueryProfiled(q, &profile);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto dph = db.Query("SELECT T.entry, T.spill, T.pred0 FROM dph AS T");
  ASSERT_TRUE(dph.ok()) << dph.status().ToString();
  // Loop-computed counts: one probe per q1 row; each fetches every DPH row
  // of its entry; the rows failing either test are rejected.
  uint64_t fetched = 0;
  uint64_t passed = 0;
  for (const auto& outer : dph->rows) {
    for (const auto& inner : dph->rows) {
      if (inner[0] != outer[0]) continue;
      ++fetched;
      if (inner[1] == sql::Value::Int(0) && !inner[2].is_null()) ++passed;
    }
  }
  EXPECT_EQ(res->rows.size(), passed);
  const std::string line_start = "IndexNLJoin(dph): rows=";
  size_t join = profile.find(line_start);
  ASSERT_NE(join, std::string::npos) << profile;
  const std::string line =
      profile.substr(join, profile.find('\n', join) - join);
  EXPECT_NE(line.find(" probes=" + std::to_string(dph->rows.size()) + " "),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(" fetched=" + std::to_string(fetched) + " "),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(" rejected=" + std::to_string(fetched - passed) + " "),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("inner=["), std::string::npos) << line;
  EXPECT_EQ(profile.find("Filter"), std::string::npos) << profile;
}

TEST_F(StoreTest, Lq9DphJoinsEmitOnlyColumnsReadAbove) {
  // Each DPH probe of LQ9 reads one or two of the stored columns above the
  // join (Figure 13's CTEs keep the entry or a value column); the rest are
  // tested in place or not read at all, so they are not emitted.
  benchdata::Workload lubm = benchdata::MakeLubm(1, 7);
  auto store = RdfStore::Load(lubm.graph);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string lq9;
  for (const auto& q : lubm.queries) {
    if (q.id == "LQ9") lq9 = q.sparql;
  }
  ASSERT_FALSE(lq9.empty());
  auto dph = (*store)->database().catalog().GetTable("dph");
  ASSERT_TRUE(dph.ok()) << dph.status().ToString();
  const size_t dph_columns = (*dph)->schema().num_columns();
  for (unsigned threads : {1u, 4u}) {
    QueryOptions opts;
    opts.max_threads = threads;
    opts.morsel_rows = 2;
    auto ex = (*store)->Explain(lq9, opts);
    ASSERT_TRUE(ex.ok()) << ex.status().ToString();
    const std::string& profile = ex->exec_stats;
    size_t joins = 0;
    for (size_t at = profile.find("IndexNLJoin(dph)");
         at != std::string::npos;
         at = profile.find("IndexNLJoin(dph)", at + 1)) {
      const std::string line =
          profile.substr(at, profile.find('\n', at) - at);
      const size_t cols = line.find(" cols=");
      ASSERT_NE(cols, std::string::npos) << line;
      const size_t slash = line.find('/', cols);
      const int emitted = std::stoi(line.substr(cols + 6, slash - cols - 6));
      EXPECT_LE(emitted, 2) << line;
      EXPECT_EQ(std::stoul(line.substr(slash + 1)), dph_columns) << line;
      ++joins;
    }
    EXPECT_GE(joins, 2u) << profile;
  }
}

}  // namespace
}  // namespace rdfrel::store
