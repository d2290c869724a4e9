#ifndef RDFREL_PERSIST_SERIALIZER_H_
#define RDFREL_PERSIST_SERIALIZER_H_

/// \file serializer.h
/// Binary (de)serialization of store components into snapshot sections and
/// WAL payloads: RDF terms and triple batches, the term dictionary, the
/// optimizer statistics, predicate mappings, and catalog tables.
///
/// Design notes:
///  * The dictionary is written in id order and rebuilt by re-Encoding each
///    term — Encode assigns dense insertion-order ids, so ids are stable
///    across save/load by construction.
///  * Predicate mappings are persisted by their *parameters* (columns,
///    functions, seed, coloring assignment), not their code: the mapping is
///    a pure function of those.
///  * Tables persist schema + index metadata + rows; indexes are rebuilt on
///    load by replaying rows through Table::CreateIndex.

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "opt/statistics.h"
#include "persist/coding.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "schema/coloring_mapping.h"
#include "schema/hash_mapping.h"
#include "schema/predicate_mapping.h"
#include "sql/catalog.h"
#include "util/status.h"

namespace rdfrel::persist {

// --- RDF terms and triple batches (WAL payloads) -------------------------

void EncodeTerm(std::string* out, const rdf::Term& term);
Result<rdf::Term> DecodeTerm(ByteReader* r);

/// WAL body of an insert/delete batch: the triples in term form. Term form
/// (not ids) keeps replay deterministic: re-encoding through the dictionary
/// reassigns identical ids in identical order.
std::string EncodeTripleBatch(const std::vector<rdf::Triple>& triples);
Result<std::vector<rdf::Triple>> DecodeTripleBatch(std::string_view payload);

// --- Dictionary ----------------------------------------------------------

std::string EncodeDictionary(const rdf::Dictionary& dict);
Result<rdf::Dictionary> DecodeDictionary(std::string_view payload);

// --- Optimizer statistics ------------------------------------------------

std::string EncodeStatistics(const opt::Statistics& stats);
Result<opt::Statistics> DecodeStatistics(std::string_view payload);

// --- Predicate mappings --------------------------------------------------

/// Supports HashMapping and ColoringMapping (the kinds RdfStore builds).
Status EncodeMapping(std::string* out, const schema::PredicateMapping& mapping);
Result<std::shared_ptr<const schema::PredicateMapping>> DecodeMapping(
    ByteReader* r);

// --- Catalog tables ------------------------------------------------------

void EncodeTable(std::string* out, const sql::Table& table);
/// Recreates one table (schema, rows, then indexes) inside \p catalog.
Status DecodeTableInto(ByteReader* r, sql::Catalog* catalog);

/// All tables of \p catalog but those named in \p skip (derived tables the
/// owner rebuilds on recovery), in name order.
std::string EncodeCatalog(const sql::Catalog& catalog,
                          const std::set<std::string>& skip = {});
Status DecodeCatalogInto(std::string_view payload, sql::Catalog* catalog);

}  // namespace rdfrel::persist

#endif  // RDFREL_PERSIST_SERIALIZER_H_
