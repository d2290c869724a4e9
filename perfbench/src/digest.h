#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

/// \file digest.h
/// Canonical result digests: a result is reduced to its projection header
/// plus its rows rendered in N-Triples form and sorted, so two stores that
/// return the same bag of solutions in different orders agree. Also the
/// graph the reference store of the output check loads.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "store/result_set.h"

namespace perfbench {

/// 64-bit FNV-1a, continued from \p h.
uint64_t Fnv1a(std::string_view data, uint64_t h = 1469598103934665603ULL);

struct Digest {
  uint64_t hash = 0;
  uint64_t rows = 0;
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.hash == b.hash && a.rows == b.rows;
  }
};

Digest DigestResult(const rdfrel::store::ResultSet& rs);

/// Subjects (original ids) of the distinct triples that
/// TripleStoreBackend::Load would drop from \p triples once every id is
/// mapped through \p perm. That loader dedupes on a 64-bit key mixed from
/// the encoded ids, and the mix is weak for two triples of one subject:
/// on LUBM at 200 universities it drops a few distinct triples at most
/// seeds.
std::vector<uint64_t> ReferenceLoaderDrops(
    const std::vector<rdfrel::rdf::EncodedTriple>& triples,
    const std::vector<uint64_t>& perm);

/// The graph the reference backend loads: the triples of \p g with the
/// terms renumbered so that its loader drops none of them. Each round
/// swaps the id of every subject that still collides with the id of a
/// term drawn from \p seed. Answers are compared as decoded terms, so the
/// numbering does not change them. Sets \p swaps to the swaps made;
/// nullopt if collisions remain after the last round.
std::optional<rdfrel::rdf::Graph> ReferenceGraph(const rdfrel::rdf::Graph& g,
                                                 uint64_t seed,
                                                 uint64_t* swaps);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
