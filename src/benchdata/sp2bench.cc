#include "benchdata/sp2bench.h"

#include "util/random.h"

namespace rdfrel::benchdata {

namespace {
constexpr const char* kNs = "http://sp2b/";
constexpr const char* kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr const char* kXsdInteger = "http://www.w3.org/2001/XMLSchema#integer";
}  // namespace

Workload MakeSp2Bench(uint64_t years, uint64_t seed) {
  Workload w;
  w.name = "sp2bench";
  Random rng(seed);
  auto R = [](const std::string& s) {
    return rdf::Term::Iri(std::string(kNs) + s);
  };
  auto Add = [&](const rdf::Term& s, const std::string& p,
                 const rdf::Term& o) {
    w.graph.Add({s, R(p), o});
  };
  auto Type = [&](const rdf::Term& s, const std::string& t) {
    w.graph.Add({s, rdf::Term::Iri(kRdfType), R(t)});
  };
  auto Lit = [&](const rdf::Term& s, const std::string& p,
                 const std::string& v) {
    w.graph.Add({s, R(p), rdf::Term::Literal(v)});
  };
  // Years and page counts are xsd:integer, as in SP2Bench's own data, so
  // the FILTERs on them compare numbers.
  auto Int = [&](const rdf::Term& s, const std::string& p, uint64_t v) {
    w.graph.Add({s, R(p), rdf::Term::TypedLiteral(std::to_string(v),
                                                  kXsdInteger)});
  };

  constexpr int kAuthorsPool = 200;
  constexpr int kArticlesPerYear = 25;
  constexpr int kInprocPerYear = 15;

  std::vector<rdf::Term> persons;
  for (int a = 0; a < kAuthorsPool; ++a) {
    rdf::Term p = R("Person" + std::to_string(a));
    Type(p, "Person");
    Lit(p, "name", "Author " + std::to_string(a));
    persons.push_back(p);
  }

  std::vector<rdf::Term> all_articles;
  for (uint64_t y = 0; y < years; ++y) {
    std::string year = std::to_string(1940 + y);
    rdf::Term journal = R("Journal" + std::to_string(y));
    Type(journal, "Journal");
    Lit(journal, "title", "Journal 1 (" + year + ")");
    Int(journal, "year", 1940 + y);

    rdf::Term proc = R("Proceedings" + std::to_string(y));
    Type(proc, "Proceedings");
    Lit(proc, "title", "Proceedings (" + year + ")");
    Int(proc, "year", 1940 + y);

    for (int a = 0; a < kArticlesPerYear; ++a) {
      rdf::Term art = R("Article" + std::to_string(y) + "_" +
                        std::to_string(a));
      Type(art, "Article");
      Add(art, "journal", journal);
      Lit(art, "title", "Article " + std::to_string(a) + " of " + year);
      Int(art, "year", 1940 + y);
      Int(art, "pages", 1 + rng.Uniform(400));
      int nauthors = 1 + static_cast<int>(rng.Uniform(3));
      for (int c = 0; c < nauthors; ++c) {
        Add(art, "creator", persons[rng.Uniform(persons.size())]);
      }
      // ~30% of articles have an abstract.
      if (rng.Bernoulli(0.3)) {
        Lit(art, "abstract", "Abstract of article " + std::to_string(a));
      }
      // Citations to earlier articles.
      if (!all_articles.empty()) {
        int ncites = static_cast<int>(rng.Uniform(4));
        for (int c = 0; c < ncites; ++c) {
          Add(art, "cites",
              all_articles[rng.Uniform(all_articles.size())]);
        }
      }
      all_articles.push_back(art);
    }

    for (int i = 0; i < kInprocPerYear; ++i) {
      rdf::Term inp = R("Inproceedings" + std::to_string(y) + "_" +
                        std::to_string(i));
      Type(inp, "Inproceedings");
      Add(inp, "partOf", proc);
      Lit(inp, "title", "Inproc " + std::to_string(i) + " of " + year);
      Int(inp, "year", 1940 + y);
      Add(inp, "creator", persons[rng.Uniform(persons.size())]);
      if (rng.Bernoulli(0.5)) {
        Int(inp, "pages", 1 + rng.Uniform(20));
      }
    }
    // Editor of each proceedings.
    Add(proc, "editor", persons[rng.Uniform(persons.size())]);
  }

  const std::string P =
      "PREFIX : <http://sp2b/> "
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> ";
  w.queries = {
      // SQ1: the year of "Journal 1 (1940)" — pinpoint lookup.
      {"SQ1", P +
                  "SELECT ?yr WHERE { ?j rdf:type :Journal . ?j :title "
                  "\"Journal 1 (1940)\" . ?j :year ?yr }"},
      // SQ2: article metadata star with OPTIONAL abstract, ordered.
      {"SQ2", P +
                  "SELECT ?a ?t ?yr ?p WHERE { ?a rdf:type :Article . ?a "
                  ":title ?t . ?a :year ?yr . ?a :pages ?p OPTIONAL { ?a "
                  ":abstract ?ab } } ORDER BY ?yr"},
      // SQ3: articles with an abstract (property test).
      {"SQ3", P +
                  "SELECT ?a WHERE { ?a rdf:type :Article . ?a :abstract "
                  "?ab }"},
      // SQ4: the explosive cross product — pairs of articles in the same
      // journal with different pages (quadratic; all systems struggled).
      {"SQ4", P +
                  "SELECT DISTINCT ?a1 ?a2 WHERE { ?a1 rdf:type :Article . "
                  "?a2 rdf:type :Article . ?a1 :journal ?j . ?a2 :journal "
                  "?j . ?a1 :pages ?p1 . ?a2 :pages ?p2 . FILTER (?p1 < "
                  "?p2) }"},
      // SQ5: authors of articles and inproceedings (union of joins).
      {"SQ5", P +
                  "SELECT DISTINCT ?person ?name WHERE { { ?x rdf:type "
                  ":Article . ?x :creator ?person . ?person :name ?name } "
                  "UNION { ?x rdf:type :Inproceedings . ?x :creator "
                  "?person . ?person :name ?name } }"},
      // SQ6: publications per year since a cutoff (filter on year).
      {"SQ6", P +
                  "SELECT ?a ?yr WHERE { ?a rdf:type :Article . ?a :year "
                  "?yr . FILTER (?yr >= 1944) }"},
      // SQ7: citations of cited articles (two-hop, nested join).
      {"SQ7", P +
                  "SELECT DISTINCT ?a ?b ?c WHERE { ?a :cites ?b . ?b "
                  ":cites ?c }"},
      // SQ8: authors publishing in both forms (join through person).
      {"SQ8", P +
                  "SELECT DISTINCT ?person WHERE { ?x rdf:type :Article . "
                  "?x :creator ?person . ?y rdf:type :Inproceedings . ?y "
                  ":creator ?person }"},
      // SQ9: all predicates of persons (variable predicate sweep).
      {"SQ9", P +
                  "SELECT DISTINCT ?pred WHERE { ?person rdf:type :Person "
                  ". ?person ?pred ?o }"},
      // SQ10: everything said about a specific person (reverse star).
      {"SQ10", P + "SELECT ?s ?p WHERE { ?s ?p :Person7 }"},
      // SQ11: pagination over articles.
      {"SQ11", P +
                   "SELECT ?a ?t WHERE { ?a rdf:type :Article . ?a :title "
                   "?t } ORDER BY ?t LIMIT 10 OFFSET 50"},
      // SQ12: bounded existence: articles of a specific author.
      {"SQ12", P +
                   "SELECT ?x WHERE { ?x rdf:type :Article . ?x :creator "
                   ":Person3 }"},
      // SQ13: editor lookup with journal year filter.
      {"SQ13", P +
                   "SELECT ?proc ?e WHERE { ?proc rdf:type :Proceedings . "
                   "?proc :editor ?e . ?proc :year ?yr . FILTER (?yr < "
                   "1943) }"},
      // SQ14: articles citing a specific article (reverse).
      {"SQ14", P + "SELECT ?x WHERE { ?x :cites :Article0_0 }"},
      // SQ15: articles without abstract (negation via !BOUND).
      {"SQ15", P +
                   "SELECT ?a WHERE { ?a rdf:type :Article OPTIONAL { ?a "
                   ":abstract ?ab } FILTER (!BOUND(?ab)) }"},
      // SQ16: title search by REGEX (post-filter path).
      {"SQ16", P +
                   "SELECT ?a ?t WHERE { ?a rdf:type :Article . ?a :title "
                   "?t . FILTER (REGEX(?t, \"of 1941\")) }"},
      // SQ17: triple-nested: author -> article -> journal of 1942.
      {"SQ17", P +
                   "SELECT DISTINCT ?name WHERE { ?a :journal ?j . ?j "
                   ":year ?yr . ?a :creator ?person . ?person :name ?name "
                   ". FILTER (?yr = 1942) }"},
  };
  return w;
}

}  // namespace rdfrel::benchdata
