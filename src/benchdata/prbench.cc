#include "benchdata/prbench.h"

#include "util/random.h"

namespace rdfrel::benchdata {

namespace {
constexpr const char* kNs = "http://pr/";
constexpr const char* kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

const char* kStatuses[] = {"open", "in_progress", "resolved", "closed"};
const char* kSeverities[] = {"blocker", "major", "minor", "trivial"};
const char* kComponents[] = {"ui", "core", "db", "net", "build", "docs"};
}  // namespace

Workload MakePrbench(uint64_t num_projects, uint64_t seed) {
  Workload w;
  w.name = "prbench";
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
  // Estimates are xsd:integer, so FILTER (?e > 30) compares numbers.
  auto Int = [&](const rdf::Term& s, const std::string& p, uint64_t v) {
    w.graph.Add({s, R(p),
                 rdf::Term::TypedLiteral(
                     std::to_string(v),
                     "http://www.w3.org/2001/XMLSchema#integer")});
  };

  constexpr int kUsersPerProject = 5;
  constexpr int kReqs = 20, kCrs = 60, kTests = 30, kWorkItems = 40,
                kBuilds = 10;

  for (uint64_t pj = 0; pj < num_projects; ++pj) {
    std::string pid = std::to_string(pj);
    rdf::Term project = R("Project" + pid);
    Type(project, "Project");
    Lit(project, "title", "Project " + pid);

    std::vector<rdf::Term> users;
    for (int u = 0; u < kUsersPerProject; ++u) {
      rdf::Term user = R("User" + pid + "_" + std::to_string(u));
      Type(user, "User");
      Lit(user, "name", "User " + std::to_string(u));
      Add(user, "memberOf", project);
      users.push_back(user);
    }
    auto user = [&]() { return users[rng.Uniform(users.size())]; };

    std::vector<rdf::Term> reqs;
    for (int r = 0; r < kReqs; ++r) {
      rdf::Term req = R("Req" + pid + "_" + std::to_string(r));
      Type(req, "Requirement");
      Add(req, "project", project);
      Lit(req, "title", "Requirement " + std::to_string(r));
      Lit(req, "priority", std::to_string(1 + rng.Uniform(5)));
      Add(req, "createdBy", user());
      reqs.push_back(req);
    }
    auto req = [&]() { return reqs[rng.Uniform(reqs.size())]; };

    std::vector<rdf::Term> crs;
    for (int c = 0; c < kCrs; ++c) {
      rdf::Term cr = R("CR" + pid + "_" + std::to_string(c));
      Type(cr, "ChangeRequest");
      Add(cr, "project", project);
      Lit(cr, "title", "Change request " + std::to_string(c));
      Lit(cr, "status", kStatuses[rng.Uniform(4)]);
      Lit(cr, "severity", kSeverities[rng.Uniform(4)]);
      Lit(cr, "component", kComponents[rng.Uniform(6)]);
      Add(cr, "createdBy", user());
      Add(cr, "tracksRequirement", req());
      if (!crs.empty() && rng.Bernoulli(0.3)) {
        Add(cr, "blockedBy", crs[rng.Uniform(crs.size())]);
      }
      crs.push_back(cr);
    }

    for (int t = 0; t < kTests; ++t) {
      rdf::Term test = R("Test" + pid + "_" + std::to_string(t));
      Type(test, "TestCase");
      Add(test, "project", project);
      Lit(test, "title", "Test " + std::to_string(t));
      Add(test, "validatesRequirement", req());
      Lit(test, "status", rng.Bernoulli(0.8) ? "pass" : "fail");
    }

    for (int wi = 0; wi < kWorkItems; ++wi) {
      rdf::Term item = R("WI" + pid + "_" + std::to_string(wi));
      Type(item, "WorkItem");
      Add(item, "project", project);
      Lit(item, "title", "Work item " + std::to_string(wi));
      Add(item, "assignedTo", user());
      Add(item, "implementsRequirement", req());
      if (rng.Bernoulli(0.5)) {
        Add(item, "relatedChangeRequest", crs[rng.Uniform(crs.size())]);
      }
      Int(item, "estimate", 1 + rng.Uniform(40));
    }

    for (int b = 0; b < kBuilds; ++b) {
      rdf::Term build = R("Build" + pid + "_" + std::to_string(b));
      Type(build, "BuildResult");
      Add(build, "project", project);
      Lit(build, "status", rng.Bernoulli(0.7) ? "green" : "red");
      Lit(build, "buildNumber", std::to_string(b));
      // Builds include a handful of change requests.
      for (int c = 0; c < 5; ++c) {
        Add(build, "includesChange", crs[rng.Uniform(crs.size())]);
      }
    }
  }

  const std::string P =
      "PREFIX : <http://pr/> "
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> ";

  // The wide-UNION queries the paper calls out: a union of N conjunctive
  // branches (one per component/status/severity combination).
  auto wide_union = [&](int branches, bool with_join) {
    std::string q = P + "SELECT ?cr ?t WHERE { ";
    for (int i = 0; i < branches; ++i) {
      if (i) q += " UNION ";
      const char* comp = kComponents[i % 6];
      const char* st = kStatuses[(i / 6) % 4];
      const char* sev = kSeverities[(i / 24) % 4];
      q += "{ ?cr :component \"" + std::string(comp) + "\" . ?cr :status "
           "\"" + st + "\" . ?cr :severity \"" + sev + "\" . ?cr :title ?t";
      if (with_join) {
        q += " . ?cr :tracksRequirement ?r . ?r :priority \"1\"";
      }
      q += " }";
    }
    q += " }";
    return q;
  };

  w.queries = {
      // PQ1: pinpoint — a specific CR's title (the paper's 4ms query).
      {"PQ1", P + "SELECT ?t WHERE { :CR0_0 :title ?t }"},
      {"PQ2", P + "SELECT ?s WHERE { :CR0_1 :status ?s }"},
      {"PQ3", P +
                  "SELECT ?cr WHERE { ?cr rdf:type :ChangeRequest . ?cr "
                  ":status \"open\" . ?cr :severity \"blocker\" }"},
      {"PQ4", P +
                  "SELECT ?cr ?u WHERE { ?cr :createdBy ?u . ?u :name "
                  "\"User 0\" . ?cr :component \"db\" }"},
      {"PQ5", P +
                  "SELECT ?t WHERE { ?t rdf:type :TestCase . ?t "
                  ":validatesRequirement :Req0_0 }"},
      {"PQ6", P +
                  "SELECT ?wi WHERE { ?wi :implementsRequirement :Req0_1 "
                  "}"},
      {"PQ7", P +
                  "SELECT ?cr ?req WHERE { ?cr :tracksRequirement ?req . "
                  "?req :priority \"1\" }"},
      {"PQ8", P +
                  "SELECT ?b ?cr WHERE { ?b rdf:type :BuildResult . ?b "
                  ":status \"red\" . ?b :includesChange ?cr }"},
      {"PQ9", P +
                  "SELECT ?cr WHERE { ?cr :blockedBy ?other . ?other "
                  ":status \"open\" }"},
      // PQ10: traceability chain — red build -> change -> requirement ->
      // failing test (the paper's 3ms-vs-39s query).
      {"PQ10", P +
                   "SELECT ?b ?cr ?req ?test WHERE { ?b rdf:type "
                   ":BuildResult . ?b :status \"red\" . ?b :includesChange "
                   "?cr . ?cr :severity \"blocker\" . ?cr "
                   ":tracksRequirement ?req . ?test :validatesRequirement "
                   "?req . ?test :status \"fail\" }"},
      {"PQ11", P +
                   "SELECT ?wi ?cr WHERE { ?wi :relatedChangeRequest ?cr "
                   "OPTIONAL { ?cr :blockedBy ?b } }"},
      {"PQ12", P +
                   "SELECT ?u ?wi WHERE { ?wi :assignedTo ?u . ?wi "
                   ":estimate ?e . FILTER (?e > 30) }"},
      {"PQ13", P +
                   "SELECT ?req WHERE { ?req rdf:type :Requirement "
                   "OPTIONAL { ?wi :implementsRequirement ?req } FILTER "
                   "(!BOUND(?wi)) }"},
      // PQ14-17: medium star joins across tools.
      {"PQ14", P +
                   "SELECT ?cr ?t ?s ?c WHERE { ?cr rdf:type "
                   ":ChangeRequest . ?cr :title ?t . ?cr :status ?s . ?cr "
                   ":component ?c . ?cr :severity \"major\" }"},
      {"PQ15", P +
                   "SELECT ?req ?cr ?test WHERE { ?cr :tracksRequirement "
                   "?req . ?test :validatesRequirement ?req . ?test "
                   ":status \"fail\" . ?cr :status \"open\" }"},
      {"PQ16", P +
                   "SELECT ?u ?cr ?wi WHERE { ?cr :createdBy ?u . ?wi "
                   ":assignedTo ?u . ?wi :relatedChangeRequest ?cr }"},
      {"PQ17", P +
                   "SELECT ?p ?cr WHERE { ?cr :project ?p . ?cr :severity "
                   "\"blocker\" . ?cr :status \"open\" OPTIONAL { ?cr "
                   ":blockedBy ?b } }"},
      {"PQ18", P + "SELECT ?p ?o WHERE { :WI0_0 ?p ?o }"},
      {"PQ19", P + "SELECT ?s ?p WHERE { ?s ?p :Req0_0 }"},
      {"PQ20", P +
                   "SELECT ?cr WHERE { { ?cr :status \"open\" } UNION { "
                   "?cr :status \"in_progress\" } }"},
      {"PQ21", P +
                   "SELECT ?x ?t WHERE { { ?x rdf:type :ChangeRequest . "
                   "?x :title ?t } UNION { ?x rdf:type :WorkItem . ?x "
                   ":title ?t } UNION { ?x rdf:type :TestCase . ?x :title "
                   "?t } }"},
      {"PQ22", P +
                   "SELECT ?cr ?req ?wi WHERE { ?cr :tracksRequirement "
                   "?req . ?wi :implementsRequirement ?req OPTIONAL { ?wi "
                   ":relatedChangeRequest ?cr2 } }"},
      {"PQ23", P +
                   "SELECT ?u ?n WHERE { ?u rdf:type :User . ?u :name ?n "
                   ". ?u :memberOf :Project0 }"},
      {"PQ24", P +
                   "SELECT ?cr ?b WHERE { ?b :includesChange ?cr . ?cr "
                   ":component \"core\" . ?b :status \"green\" }"},
      {"PQ25", P +
                   "SELECT ?req ?p WHERE { ?req :priority \"5\" . ?req "
                   ":project ?p OPTIONAL { ?req :createdBy ?u } }"},
      // PQ26-28: the very wide UNION queries (24/60/96 branches; the paper
      // mentions a 100-pattern union with ~500 triples).
      {"PQ26", wide_union(24, false)},
      {"PQ27", wide_union(60, false)},
      {"PQ28", wide_union(96, true)},
      // PQ29: medium mixed query.
      {"PQ29", P +
                   "SELECT ?cr ?req ?test ?wi WHERE { ?cr "
                   ":tracksRequirement ?req . ?test :validatesRequirement "
                   "?req . ?wi :implementsRequirement ?req . ?cr :status "
                   "\"resolved\" OPTIONAL { ?wi :assignedTo ?u } }"},
  };
  return w;
}

}  // namespace rdfrel::benchdata
