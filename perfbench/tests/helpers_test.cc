// Unit tests of the benchmark's own helpers: percentiles, self time from
// spans, result digests, the reference graph, the rate-ladder search and
// the HTTP response reader. Run with `python3 perfbench/run.py --selftest`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "digest.h"
#include "http_load.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                   __LINE__, #cond);                                \
      ++failures;                                                   \
    }                                                               \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using namespace perfbench;
  CHECK(Near(Percentile({}, 0.5), 0));
  CHECK(Near(Percentile(Range(100), 0.0), 1));
  CHECK(Near(Percentile(Range(100), 1.0), 100));
  CHECK(Near(Percentile(Range(100), 0.5), 50.5));
  CHECK(Near(Percentile({3, 1, 2}, 0.5), 2));
  CHECK(Near(Median({5}), 5));
  CHECK(Near(Mean({1, 2, 3, 6}), 3));
}

void TestHonestPercentile() {
  using namespace perfbench;
  CHECK(SamplesBeyond(100, 0.95) == 5);
  CHECK(SamplesBeyond(100, 0.90) == 10);
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(!HonestPercentile(Range(100), 0.95).has_value());
  CHECK(HonestPercentile(Range(100), 0.90).has_value());
  CHECK(HonestPercentile(Range(1000), 0.99).has_value());
  auto tail = HighestHonestTail(Range(200));
  CHECK(tail.has_value() && Near(tail->q, 0.95));
  CHECK(!HighestHonestTail(Range(15)).has_value());
}

void TestGeoMean() {
  using namespace perfbench;
  CHECK(Near(GeoMean({2, 8}), 4));
  CHECK(Near(GeoMean({0, 2, 8}), 4));  // non-positive values skipped
  KindSamples k;
  k["a"] = {1, 2, 3};
  k["b"] = {8};
  CHECK(Near(GeoMeanOfKindMedians(k), 4));
}

void TestSelfTimes() {
  using namespace perfbench;
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 7},
      {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},   // overlaps a: covered once
      {"c", 90, 120, 0, 7},  // runs past its parent: only 90..100 counts
      {"d", 12, 18, 1, 7},   // grandchild: charged to a, not to root
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  auto totals = TotalsByName(spans);
  CHECK(totals["root"].self_ns == 50 && totals["root"].count == 1);
  CHECK(totals["a"].count == 1);

  Tracer tracer(Clock::now());
  {
    ScopedSpan outer(&tracer, "outer", -1, 1);
    ScopedSpan inner(&tracer, "inner", outer.id(), 1);
  }
  CHECK(tracer.spans().size() == 2);
  CHECK(tracer.spans()[1].parent == 0);
  CHECK(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
}

void TestDigest() {
  using namespace perfbench;
  using rdfrel::rdf::Term;
  rdfrel::store::ResultSet a;
  a.vars = {"x", "y"};
  a.rows = {{Term::Iri("http://e/1"), Term::Literal("one")},
            {Term::Iri("http://e/2"), std::nullopt}};
  rdfrel::store::ResultSet b = a;
  std::swap(b.rows[0], b.rows[1]);
  CHECK(DigestResult(a) == DigestResult(b));  // order does not matter
  CHECK(DigestResult(a).rows == 2);
  rdfrel::store::ResultSet c = a;
  c.rows[1][1] = Term::Literal("UNDEF");  // unbound is not a literal
  CHECK(!(DigestResult(a) == DigestResult(c)));
  rdfrel::store::ResultSet d = a;
  d.vars = {"x", "z"};
  CHECK(!(DigestResult(a) == DigestResult(d)));
  rdfrel::store::ResultSet e = a;
  e.rows.push_back(e.rows[0]);  // bags, not sets
  CHECK(!(DigestResult(a) == DigestResult(e)));
}

std::vector<std::string> SortedTriples(const rdfrel::rdf::Graph& g) {
  std::vector<std::string> out;
  auto all = g.DecodeAll();
  if (!all.ok()) return out;
  for (const auto& t : *all) {
    out.push_back(t.subject.ToNTriples() + " " + t.predicate.ToNTriples() +
                  " " + t.object.ToNTriples());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TestReferenceGraph() {
  using namespace perfbench;
  using rdfrel::rdf::Term;
  rdfrel::rdf::Graph g;
  for (int i = 1; i <= 13000; ++i) {
    g.dictionary().Encode(Term::Iri("http://e/" + std::to_string(i)));
  }
  // Two distinct triples of one subject whose loader keys collide, and an
  // exact duplicate, which the loader may drop.
  g.AddEncoded({12070, 36, 12071});
  g.AddEncoded({12070, 42, 3873});
  g.AddEncoded({12070, 36, 12071});
  g.AddEncoded({5, 6, 7});
  std::vector<uint64_t> identity(g.dictionary().size() + 1);
  for (uint64_t i = 0; i < identity.size(); ++i) identity[i] = i;
  CHECK(ReferenceLoaderDrops(g.triples(), identity) ==
        std::vector<uint64_t>{12070});

  uint64_t swaps = 0;
  auto r = ReferenceGraph(g, 7, &swaps);
  CHECK(r.has_value());
  if (!r) return;
  CHECK(swaps >= 1);
  CHECK(r->dictionary().size() == g.dictionary().size());
  CHECK(ReferenceLoaderDrops(r->triples(), identity).empty());
  CHECK(SortedTriples(*r) == SortedTriples(g));  // same terms, new ids

  rdfrel::rdf::Graph clean;
  clean.Add({Term::Iri("http://e/a"), Term::Iri("http://e/p"),
             Term::Literal("x")});
  auto same = ReferenceGraph(clean, 7, &swaps);
  CHECK(same.has_value() && swaps == 0);
  if (same) CHECK(SortedTriples(*same) == SortedTriples(clean));
}

void TestRateSearch() {
  using namespace perfbench;
  CHECK(Near(MaxPassingRate({{200, 5, true}, {400, 10, true}, {800, 30, true}},
                            25),
             400));
  CHECK(Near(MaxPassingRate({{800, 5, true}, {200, 5, true}, {400, 5, true}},
                            25),
             800));
  // A step that did not keep up ends the search even if its tail is fine,
  // and a later pass does not count.
  CHECK(Near(MaxPassingRate({{200, 5, true}, {400, 5, false}, {800, 5, true}},
                            25),
             200));
  CHECK(Near(MaxPassingRate({{200, 9000, true}, {400, 5, true}}, 25), 0));
  CHECK(Near(MaxPassingRate({}, 25), 0));
}

void TestResponseReader() {
  using namespace perfbench;
  const std::string body = "{\"head\":{}}";
  {
    ResponseReader r;
    CHECK(r.Feed("HTTP/1.1 200 OK\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body));
    CHECK(r.done() && r.status() == 200 && r.keep_alive());
    CHECK(r.body_hash() == Fnv1a(body) && r.body_bytes() == body.size());
  }
  {
    // Chunked, fed one byte at a time.
    const std::string wire =
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        "Connection: close\r\n\r\n4\r\n{\"he\r\n7\r\nad\":{}}\r\n0\r\n\r\n";
    ResponseReader r;
    bool ok = true;
    for (char c : wire) ok = ok && r.Feed(std::string(1, c));
    CHECK(ok && r.done() && !r.keep_alive());
    CHECK(r.body_hash() == Fnv1a(body) && r.body_bytes() == body.size());
  }
  {
    ResponseReader r;
    CHECK(r.Feed("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"));
    CHECK(r.done() && r.status() == 503);
    CHECK(!r.Feed("x"));  // nothing may follow the one response in flight
  }
  {
    ResponseReader r;
    CHECK(r.Feed("HTTP/1.1 200 OK\r\n\r\nab"));  // delimited by close
    CHECK(!r.done());
    r.OnEof();
    CHECK(r.done() && r.body_bytes() == 2);
  }
  {
    ResponseReader r;
    CHECK(!r.Feed("garbage\r\n\r\n"));
  }
}

}  // namespace

int main() {
  TestPercentile();
  TestHonestPercentile();
  TestGeoMean();
  TestSelfTimes();
  TestDigest();
  TestReferenceGraph();
  TestRateSearch();
  TestResponseReader();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
