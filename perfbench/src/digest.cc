#include "digest.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/random.h"

namespace perfbench {

uint64_t Fnv1a(std::string_view data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Digest DigestResult(const rdfrel::store::ResultSet& rs) {
  std::vector<std::string> lines;
  lines.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& term : row) {
      line += term ? term->ToNTriples() : std::string("UNDEF");
      line += '\t';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = Fnv1a("vars");
  for (const auto& v : rs.vars) {
    h = Fnv1a(v, h);
    h = Fnv1a("\t", h);
  }
  for (const auto& line : lines) {
    h = Fnv1a("\n", h);
    h = Fnv1a(line, h);
  }
  return Digest{h, rs.rows.size()};
}

std::vector<uint64_t> ReferenceLoaderDrops(
    const std::vector<rdfrel::rdf::EncodedTriple>& triples,
    const std::vector<uint64_t>& perm) {
  std::unordered_map<uint64_t, rdfrel::rdf::EncodedTriple> first;
  first.reserve(triples.size());
  std::vector<uint64_t> subjects;
  for (const auto& t : triples) {
    const rdfrel::rdf::EncodedTriple m{perm[t.subject], perm[t.predicate],
                                       perm[t.object]};
    const uint64_t key = rdfrel::HashCombine(
        rdfrel::HashCombine(rdfrel::Mix64(m.subject), m.predicate), m.object);
    auto [it, fresh] = first.try_emplace(key, m);
    if (!fresh && !(it->second == m)) subjects.push_back(t.subject);
  }
  return subjects;
}

std::optional<rdfrel::rdf::Graph> ReferenceGraph(const rdfrel::rdf::Graph& g,
                                                 uint64_t seed,
                                                 uint64_t* swaps) {
  const uint64_t terms = g.dictionary().size();
  std::vector<uint64_t> perm(terms + 1);
  for (uint64_t id = 0; id <= terms; ++id) perm[id] = id;
  rdfrel::Random rng(seed ^ 0x5EEDF00DULL);
  *swaps = 0;
  constexpr int kMaxRounds = 64;
  for (int round = 0;; ++round) {
    const auto colliding = ReferenceLoaderDrops(g.triples(), perm);
    if (colliding.empty()) break;
    if (round == kMaxRounds) return std::nullopt;
    for (uint64_t subject : colliding) {
      std::swap(perm[subject], perm[1 + rng.Uniform(terms)]);
      ++*swaps;
    }
  }
  // Encode the terms in their new order; Encode numbers them 1, 2, ...
  std::vector<uint64_t> by_new(terms + 1, 0);
  for (uint64_t id = 1; id <= terms; ++id) by_new[perm[id]] = id;
  rdfrel::rdf::Graph r;
  for (uint64_t id = 1; id <= terms; ++id) {
    auto term = g.dictionary().Decode(by_new[id]);
    if (!term.ok() || r.dictionary().Encode(*term) != id) return std::nullopt;
  }
  for (const auto& t : g.triples()) {
    r.AddEncoded({perm[t.subject], perm[t.predicate], perm[t.object]});
  }
  return r;
}

}  // namespace perfbench
