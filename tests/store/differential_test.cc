/// Randomized differential testing against an engine-independent oracle:
/// on random graphs, every random query must produce the reference
/// evaluator's answer multiset (tests/reference/) on the DB2RDF store (in
/// several configurations, including spill-heavy tiny-k ones), the
/// triple-store baseline and the predicate-table baseline. The reference
/// matches patterns directly over the rdf::Graph, so a bug shared by the
/// stores' common layers (optimizer, translator, SQL engine) cannot cancel
/// out. This is the strongest correctness net over those layers together.
///
/// Fixed checks ride along: every workload query the reference accepts,
/// on all three backends; the FILTER comparison matrix of SPARQL 1.1
/// §17.4.1.7 (numbers by value, strings by lexical form, type errors kept
/// through `!`); and `!=` under LIMIT, COUNT, OPTIONAL and UNION.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "reference/reference_eval.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"
#include "util/random.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

constexpr int kNumPredicates = 8;
constexpr int kNumSubjects = 40;
constexpr int kNumObjects = 25;

Term Pred(uint64_t i) {
  return Term::Iri("http://d/p" + std::to_string(i));
}
Term Subj(uint64_t i) {
  return Term::Iri("http://d/s" + std::to_string(i));
}
Term Obj(uint64_t i) {
  // Mix IRIs and literals; IRIs overlap the subject space so chains and
  // triangles exist.
  if (i % 3 == 0) return Term::Literal("lit" + std::to_string(i));
  return Subj(i % kNumSubjects);
}

rdf::Graph RandomGraph(Random& rng, int num_triples) {
  rdf::Graph g;
  for (int i = 0; i < num_triples; ++i) {
    g.Add({Subj(rng.Uniform(kNumSubjects)),
           Pred(rng.Uniform(kNumPredicates)),
           Obj(rng.Uniform(kNumObjects))});
  }
  return g;
}

/// A random triple pattern over variables ?v0..?v3 and graph constants.
std::string RandomTriple(Random& rng) {
  auto component = [&](int pos) -> std::string {
    uint64_t die = rng.Uniform(10);
    if (pos == 1) {  // predicate: mostly constant, sometimes variable
      if (die < 8) {
        return "<http://d/p" + std::to_string(rng.Uniform(kNumPredicates)) +
               ">";
      }
      return "?v" + std::to_string(rng.Uniform(4));
    }
    if (die < 6) return "?v" + std::to_string(rng.Uniform(4));
    if (pos == 2 && die < 8) {
      uint64_t o = rng.Uniform(kNumObjects);
      if (o % 3 == 0) return "\"lit" + std::to_string(o) + "\"";
      return "<http://d/s" + std::to_string(o % kNumSubjects) + ">";
    }
    return "<http://d/s" + std::to_string(rng.Uniform(kNumSubjects)) + ">";
  };
  return component(0) + " " + component(1) + " " + component(2);
}

std::string RandomFilter(Random& rng) {
  uint64_t die = rng.Uniform(4);
  std::string var = "?v" + std::to_string(rng.Uniform(4));
  switch (die) {
    case 0:
      return "FILTER (BOUND(" + var + ")) ";
    case 1:
      return "FILTER (!BOUND(" + var + ")) ";
    case 2:
      return "FILTER (" + var + " = <http://d/s" +
             std::to_string(rng.Uniform(kNumSubjects)) + ">) ";
    default:
      return "FILTER (" + var + " != \"lit" +
             std::to_string(rng.Uniform(kNumObjects)) + "\") ";
  }
}

std::string RandomQuery(Random& rng) {
  std::string q = "SELECT * WHERE { ";
  uint64_t shape = rng.Uniform(6);
  int triples = 1 + static_cast<int>(rng.Uniform(3));
  switch (shape) {
    case 0:  // plain BGP
      for (int i = 0; i < triples; ++i) {
        q += RandomTriple(rng) + " . ";
      }
      break;
    case 1:  // BGP + UNION of two branches
      q += RandomTriple(rng) + " . { " + RandomTriple(rng) + " } UNION { " +
           RandomTriple(rng) + " } ";
      break;
    case 2:  // BGP + OPTIONAL
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      q += "OPTIONAL { " + RandomTriple(rng) + " } ";
      break;
    case 3:  // UNION of BGPs
      q += "{ " + RandomTriple(rng) + " . " + RandomTriple(rng) +
           " } UNION { " + RandomTriple(rng) + " } ";
      break;
    case 4:  // BGP + FILTER
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      q += RandomFilter(rng);
      break;
    default:  // star on a shared subject variable
      for (int i = 0; i < triples; ++i) {
        q += "?v0 <http://d/p" +
             std::to_string(rng.Uniform(kNumPredicates)) + "> ?o" +
             std::to_string(i) + " . ";
      }
      break;
  }
  q += "}";
  return q;
}

using Row = std::vector<std::optional<Term>>;

/// Order-insensitive answer multiset over \p rows, with columns taken in
/// the order of \p order (indices into each row).
std::multiset<std::string> Signature(const std::vector<Row>& rows,
                                     const std::vector<size_t>& order) {
  std::multiset<std::string> out;
  for (const auto& row : rows) {
    std::string sig;
    for (size_t i : order) {
      sig += row[i].has_value() ? row[i]->ToNTriples() : "UNBOUND";
      sig += "\x1f";
    }
    out.insert(sig);
  }
  return out;
}

/// The reference answer, columns in the reference's variable order.
std::multiset<std::string> Signature(const reference::Solutions& s) {
  std::vector<size_t> order(s.vars.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  return Signature(s.rows, order);
}

/// A store's answer with its columns matched to \p vars by name; empty
/// optional when the variable lists differ as sets.
std::optional<std::multiset<std::string>> Signature(
    const ResultSet& rs, const std::vector<std::string>& vars) {
  std::vector<size_t> order;
  for (const auto& v : vars) {
    auto it = std::find(rs.vars.begin(), rs.vars.end(), v);
    if (it == rs.vars.end()) return std::nullopt;
    order.push_back(static_cast<size_t>(it - rs.vars.begin()));
  }
  if (order.size() != rs.vars.size()) return std::nullopt;
  return Signature(rs.rows, order);
}

rdf::Graph Clone(const rdf::Graph& g) {
  rdf::Graph out;
  for (const auto& t : g.triples()) {
    out.Add(*g.dictionary().DecodeTriple(t));
  }
  return out;
}

struct DiffParam {
  uint64_t seed;
  uint32_t k;            // 0 = auto coloring
  bool use_coloring;
  uint32_t hash_fns;
};

class DifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(DifferentialTest, RandomQueriesAgreeAcrossBackendsAndConfigs) {
  const DiffParam& p = GetParam();
  Random rng(p.seed);
  const rdf::Graph graph = RandomGraph(rng, 300);

  RdfStoreOptions opts;
  opts.k_direct = p.k;
  opts.k_reverse = p.k;
  opts.use_coloring = p.use_coloring;
  opts.hash_functions = p.hash_fns;
  auto db2rdf = RdfStore::Load(Clone(graph), opts);
  ASSERT_TRUE(db2rdf.ok()) << db2rdf.status().ToString();
  auto triple = TripleStoreBackend::Load(Clone(graph));
  ASSERT_TRUE(triple.ok()) << triple.status().ToString();
  auto predicate = PredicateStoreBackend::Load(Clone(graph));
  ASSERT_TRUE(predicate.ok()) << predicate.status().ToString();
  const std::pair<const char*, SparqlStore*> stores[] = {
      {"DB2RDF", db2rdf->get()},
      {"triple-store", triple->get()},
      {"predicate-store", predicate->get()}};

  for (int i = 0; i < 40; ++i) {
    const std::string q = RandomQuery(rng);
    // Every query the grammar generates is inside the reference's subset;
    // an Unsupported answer is a failure, never a skip.
    auto ref = reference::Evaluate(graph, q);
    ASSERT_TRUE(ref.ok()) << q << "\nreference: " << ref.status().ToString();
    const std::multiset<std::string> expected = Signature(*ref);

    for (const auto& [name, store] : stores) {
      auto got = store->Query(q);
      ASSERT_TRUE(got.ok()) << name << " on:\n"
                            << q << "\n" << got.status().ToString();
      ASSERT_EQ(Signature(*got, ref->vars), expected)
          << name << " disagrees with the reference on:\n"
          << q << "\n" << name << " rows: " << got->size()
          << ", reference rows: " << ref->rows.size() << "\nSQL:\n"
          << store->TranslateToSql(q).ValueOr("<err>");
    }

    // Also check the DB2RDF ablation pipelines on a subset.
    if (i % 5 == 0) {
      auto ablation = [](FlowMode flow, bool late_fusing, bool merging) {
        QueryOptions o;
        o.flow = flow;
        o.late_fusing = late_fusing;
        o.merging = merging;
        return o;
      };
      for (QueryOptions qo : {ablation(FlowMode::kParseOrder, true, true),
                              ablation(FlowMode::kGreedy, true, false),
                              ablation(FlowMode::kGreedy, false, false)}) {
        auto c = (*db2rdf)->QueryWith(q, qo);
        ASSERT_TRUE(c.ok()) << q << "\n" << c.status().ToString();
        ASSERT_EQ(Signature(*c, ref->vars), expected)
            << "ablation disagreement (flow=" << static_cast<int>(qo.flow)
            << " lf=" << qo.late_fusing << " merge=" << qo.merging
            << ") on:\n"
            << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialTest,
    ::testing::Values(
        DiffParam{1, 0, true, 2},   // default: auto coloring
        DiffParam{2, 0, true, 2},
        DiffParam{3, 16, false, 2},  // pure hashing
        DiffParam{4, 3, false, 1},   // tiny k: spill-heavy
        DiffParam{5, 2, false, 1},   // tinier k: everything spills
        DiffParam{6, 0, true, 3},
        DiffParam{7, 4, true, 2},    // forced small budget + fallback
        DiffParam{8, 3, false, 2},
        DiffParam{9, 0, true, 2},
        DiffParam{10, 8, false, 2},
        DiffParam{11, 2, true, 2},
        DiffParam{12, 0, true, 1}),
    [](const ::testing::TestParamInfo<DiffParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_k" +
             std::to_string(param_info.param.k) +
             (param_info.param.use_coloring ? "_color" : "_hash") + "_f" +
             std::to_string(param_info.param.hash_fns);
    });

/// The three backends, each loaded from its own copy of \p graph.
struct Backends {
  std::unique_ptr<RdfStore> db2rdf;
  std::unique_ptr<TripleStoreBackend> triple;
  std::unique_ptr<PredicateStoreBackend> predicate;

  static Backends Load(const rdf::Graph& graph) {
    Backends b;
    b.db2rdf = RdfStore::Load(Clone(graph)).value();
    b.triple = TripleStoreBackend::Load(Clone(graph)).value();
    b.predicate = PredicateStoreBackend::Load(Clone(graph)).value();
    return b;
  }
  std::vector<std::pair<const char*, SparqlStore*>> All() const {
    return {{"DB2RDF", db2rdf.get()},
            {"triple-store", triple.get()},
            {"predicate-store", predicate.get()}};
  }
};

struct WorkloadParam {
  const char* name;
  size_t checked;  // queries inside the reference's subset
  size_t total;
};

benchdata::Workload MakeWorkload(const std::string& name) {
  if (name == "micro") return benchdata::MakeMicro(400, 11);
  if (name == "lubm") return benchdata::MakeLubm(2, 11);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(4, 11);
  if (name == "dbpedia") return benchdata::MakeDbpedia(400, 300, 11);
  return benchdata::MakePrbench(2, 11);
}

class WorkloadOracleDifferentialTest
    : public ::testing::TestWithParam<WorkloadParam> {};

TEST_P(WorkloadOracleDifferentialTest, AllBackendsMatchReference) {
  const WorkloadParam& p = GetParam();
  const benchdata::Workload w = MakeWorkload(p.name);
  const Backends backends = Backends::Load(w.graph);
  size_t checked = 0;
  for (const auto& nq : w.queries) {
    auto ref = reference::Evaluate(w.graph, nq.sparql);
    if (!ref.ok()) {
      // ORDER BY, LIMIT, aggregates, paths and REGEX lie outside the
      // reference's subset; the counts below pin how many are checked.
      ASSERT_TRUE(ref.status().IsUnsupported())
          << nq.id << ": " << ref.status().ToString();
      continue;
    }
    ++checked;
    const std::multiset<std::string> expected = Signature(*ref);
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(nq.sparql);
      ASSERT_TRUE(got.ok()) << name << " " << nq.id << ": "
                            << got.status().ToString();
      EXPECT_EQ(Signature(*got, ref->vars), expected)
          << name << " disagrees with the reference on " << nq.id << " ("
          << got->size() << " rows, reference " << ref->rows.size()
          << "):\n"
          << nq.sparql;
    }
  }
  EXPECT_EQ(w.queries.size(), p.total);
  EXPECT_EQ(checked, p.checked);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadOracleDifferentialTest,
    ::testing::Values(WorkloadParam{"micro", 10, 10},
                      WorkloadParam{"lubm", 12, 12},
                      WorkloadParam{"sp2bench", 11, 17},
                      WorkloadParam{"dbpedia", 14, 20},
                      WorkloadParam{"prbench", 28, 29}),
    [](const ::testing::TestParamInfo<WorkloadParam>& param_info) {
      return std::string(param_info.param.name);
    });

/// Local names of the subjects whose FILTER holds, sorted.
std::vector<std::string> Subjects(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    out.push_back(row[0].has_value() ? row[0]->lexical().substr(9)
                                     : "UNBOUND");
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FilterComparisonDifferential, NumericAndStringMatrix) {
  // s2 and s5 hold xsd:integer numbers; s3 holds the *string* "5".
  const std::string xsd_int = "http://www.w3.org/2001/XMLSchema#integer";
  auto iri = [](const std::string& s) { return Term::Iri("http://m/" + s); };
  rdf::Graph g;
  g.Add({iri("s1"), iri("p"), iri("o")});
  g.Add({iri("s2"), iri("p"), Term::TypedLiteral("5", xsd_int)});
  g.Add({iri("s3"), iri("p"), Term::Literal("5")});
  g.Add({iri("s4"), iri("p"), Term::Literal("abc")});
  g.Add({iri("s5"), iri("p"), Term::TypedLiteral("7", xsd_int)});
  // Ill-typed integers: outside xsd:integer's lexical space, so neither
  // numbers nor strings, and every comparison on them is an error.
  g.Add({iri("s6"), iri("p"), Term::TypedLiteral(" 5", xsd_int)});
  g.Add({iri("s7"), iri("p"), Term::TypedLiteral("0x10", xsd_int)});
  const Backends backends = Backends::Load(g);

  struct Case {
    const char* filter;
    std::vector<std::string> subjects;
    bool reference;  // inside the reference's subset
  };
  const Case cases[] = {
      // A number never equals a string, and comparing the two is a type
      // error, which `!` keeps an error; an IRI is merely unequal.
      {"?o = 5", {"s2"}, true},
      {"?o = \"5\"", {"s3"}, true},
      {"?o != 5", {"s1", "s5"}, true},
      {"!(?o = 5)", {"s1", "s5"}, true},
      {"?o != \"5\"", {"s1", "s4"}, true},
      {"!(?o != 5)", {"s2"}, true},
      // Numbers compare by value across numeric types.
      {"?o = 5.0", {"s2"}, true},
      {"?o > 5", {"s5"}, false},
      {"!(?o > 5)", {"s2"}, false},
      {"?o = 16", {}, true},
      {"?o >= 5", {"s2", "s5"}, false},
  };
  for (const Case& c : cases) {
    const std::string q =
        std::string("SELECT ?s WHERE { ?s <http://m/p> ?o . FILTER (") +
        c.filter + ") }";
    if (c.reference) {
      auto ref = reference::Evaluate(g, q);
      ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
      EXPECT_EQ(Subjects(ref->rows), c.subjects) << "reference on " << q;
    }
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(q);
      ASSERT_TRUE(got.ok()) << name << " on " << q << ": "
                            << got.status().ToString();
      EXPECT_EQ(Subjects(got->rows), c.subjects)
          << name << " on " << q << "\nSQL:\n"
          << store->TranslateToSql(q).ValueOr("<err>");
    }
  }
}

TEST(FilterComparisonDifferential, VariablesCompareByValue) {
  // 5 and 5.0 are one number in two types; "5" is a string.
  auto iri = [](const std::string& s) { return Term::Iri("http://m/" + s); };
  rdf::Graph g;
  g.Add({iri("s1"), iri("p"),
         Term::TypedLiteral("5", "http://www.w3.org/2001/XMLSchema#integer")});
  g.Add({iri("s2"), iri("p"),
         Term::TypedLiteral("5.0",
                            "http://www.w3.org/2001/XMLSchema#decimal")});
  g.Add({iri("s3"), iri("p"), Term::Literal("5")});
  g.Add({iri("s4"), iri("p"), iri("o")});
  const Backends backends = Backends::Load(g);
  // Each (a, b) pair whose filter holds. Equal: every node with itself,
  // plus s1/s2. Unequal: only the IRI against a literal, since a number
  // against a string is a type error.
  const std::pair<const char*, size_t> cases[] = {{"?x = ?y", 6},
                                                  {"!(?x = ?y)", 6},
                                                  {"?x != ?y", 6}};
  for (const auto& [filter, rows] : cases) {
    const std::string q = std::string(
                              "SELECT ?a ?b WHERE { ?a <http://m/p> ?x . ?b "
                              "<http://m/p> ?y . FILTER (") +
                          filter + ") }";
    auto ref = reference::Evaluate(g, q);
    ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
    EXPECT_EQ(ref->rows.size(), rows) << "reference on " << q;
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(q);
      ASSERT_TRUE(got.ok()) << name << " on " << q << ": "
                            << got.status().ToString();
      EXPECT_EQ(Signature(*got, ref->vars), Signature(*ref))
          << name << " on " << q << "\nSQL:\n"
          << store->TranslateToSql(q).ValueOr("<err>");
    }
  }
}

/// True when every row of \p part occurs in \p whole, counting repeats.
bool IsSubBag(const std::multiset<std::string>& part,
              const std::multiset<std::string>& whole) {
  return std::includes(whole.begin(), whole.end(), part.begin(), part.end());
}

TEST(FilterComparisonDifferential, InequalityUnderLimitCountAndOptional) {
  // The literal rows come first, so a LIMIT taken before a decoded-row
  // filter would cut rows the filter keeps.
  auto iri = [](const std::string& s) { return Term::Iri("http://m/" + s); };
  const std::string xsd_int = "http://www.w3.org/2001/XMLSchema#integer";
  rdf::Graph g;
  g.Add({iri("n1"), iri("p"), Term::TypedLiteral("5", xsd_int)});
  g.Add({iri("n2"), iri("p"), Term::TypedLiteral("6", xsd_int)});
  g.Add({iri("n3"), iri("p"), Term::Literal("abc")});
  g.Add({iri("s1"), iri("p"), iri("o1")});
  g.Add({iri("s2"), iri("p"), Term::Literal("xyz")});
  g.Add({iri("s3"), iri("p"), iri("o1")});
  g.Add({iri("s1"), iri("q"), iri("r")});
  g.Add({iri("n3"), iri("q"), iri("r")});
  const Backends backends = Backends::Load(g);
  const std::string pre = "PREFIX : <http://m/> ";

  // ?o can hold a literal, so `?o != "abc"` runs on decoded rows: the
  // slice counts filtered rows, and aggregates or an OPTIONAL around it
  // are refused rather than answered wrongly.
  const std::string object_where =
      "WHERE { ?s :p ?o . FILTER (?o != \"abc\") }";
  // ?a and ?b are subjects, so they hold IRIs and `!=` is id inequality
  // in SQL, also under COUNT, OPTIONAL and UNION.
  const std::string subject_where =
      "WHERE { ?a :p ?x . ?b :p ?y . FILTER (?a != ?b) }";
  struct Sliced {
    std::string where;
    std::string vars;
    std::string slice;
    size_t rows;
  };
  const Sliced sliced[] = {
      {object_where, "?s ?o", "LIMIT 2", 2},
      {object_where, "?s ?o", "LIMIT 2 OFFSET 2", 1},
      {object_where, "?s ?o", "OFFSET 1", 2},
      {object_where, "DISTINCT ?o", "LIMIT 2", 2},
      {subject_where, "?a ?b", "LIMIT 7", 7},
  };
  for (const Sliced& c : sliced) {
    const std::string full = pre + "SELECT " + c.vars + " " + c.where;
    auto ref = reference::Evaluate(g, full);
    ASSERT_TRUE(ref.ok()) << full << ": " << ref.status().ToString();
    const std::multiset<std::string> whole = Signature(*ref);
    const std::string q = full + " " + c.slice;
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(q);
      ASSERT_TRUE(got.ok()) << name << " on " << q << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->size(), c.rows) << name << " on " << q;
      const auto sig = Signature(*got, ref->vars);
      ASSERT_TRUE(sig.has_value()) << name << " on " << q;
      EXPECT_TRUE(IsSubBag(*sig, whole)) << name << " on " << q;
    }
  }

  const std::pair<std::string, std::string> counted[] = {
      {"SELECT (COUNT(*) AS ?n) " + subject_where, "30"},
      {"SELECT (COUNT(*) AS ?n) WHERE { ?a :p ?x . ?b :p ?y . "
       "FILTER (!(?a = ?b)) }",
       "30"},
  };
  for (const auto& [body, count] : counted) {
    const std::string q = pre + body;
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(q);
      ASSERT_TRUE(got.ok()) << name << " on " << q << ": "
                            << got.status().ToString();
      ASSERT_EQ(got->size(), 1u) << name << " on " << q;
      ASSERT_TRUE(got->rows[0][0].has_value()) << name << " on " << q;
      EXPECT_EQ(got->rows[0][0]->lexical(), count) << name << " on " << q;
    }
  }

  const std::string nested[] = {
      "SELECT ?a ?b WHERE { ?a :q ?r OPTIONAL { ?b :p ?y . "
      "FILTER (?a != ?b) } }",
      "SELECT ?a ?b WHERE { { ?a :p ?x . ?b :q ?z . FILTER (?a != ?b) } "
      "UNION { ?a :q ?b } }",
      "SELECT ?a ?x WHERE { ?a :p ?x . FILTER (?a != ?x) }",
  };
  for (const std::string& body : nested) {
    const std::string q = pre + body;
    auto ref = reference::Evaluate(g, q);
    ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(q);
      ASSERT_TRUE(got.ok()) << name << " on " << q << ": "
                            << got.status().ToString();
      EXPECT_EQ(Signature(*got, ref->vars), Signature(*ref))
          << name << " on " << q << "\nSQL:\n"
          << store->TranslateToSql(q).ValueOr("<err>");
    }
  }

  const std::string refused[] = {
      "SELECT (COUNT(*) AS ?n) " + object_where,
      "SELECT ?r ?o WHERE { ?s :q ?r OPTIONAL { ?s :p ?o . "
      "FILTER (?o != \"abc\") } }",
  };
  for (const std::string& body : refused) {
    const std::string q = pre + body;
    for (const auto& [name, store] : backends.All()) {
      auto got = store->Query(q);
      ASSERT_FALSE(got.ok()) << name << " answered " << q;
      EXPECT_TRUE(got.status().IsUnsupported())
          << name << " on " << q << ": " << got.status().ToString();
    }
  }
}

}  // namespace
}  // namespace rdfrel::store
