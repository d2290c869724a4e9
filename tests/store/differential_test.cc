/// Randomized differential testing against an engine-independent oracle:
/// on random graphs, every random query must produce the reference
/// evaluator's answer multiset (tests/reference/) on the DB2RDF store (in
/// several configurations, including spill-heavy tiny-k ones), the
/// triple-store baseline and the predicate-table baseline. The reference
/// matches patterns directly over the rdf::Graph, so a bug shared by the
/// stores' common layers (optimizer, translator, SQL engine) cannot cancel
/// out. This is the strongest correctness net over those layers together.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

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
      for (QueryOptions qo :
           {QueryOptions{FlowMode::kParseOrder, true, true},
            QueryOptions{FlowMode::kGreedy, true, false},
            QueryOptions{FlowMode::kGreedy, false, false}}) {
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

}  // namespace
}  // namespace rdfrel::store
