#ifndef RDFREL_RDF_TERM_H_
#define RDFREL_RDF_TERM_H_

/// \file term.h
/// RDF terms (IRIs, literals, blank nodes) and triples, per RDF 1.0 [14].

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace rdfrel::rdf {

/// Kind of an RDF term.
enum class TermKind : uint8_t {
  kIri = 0,     ///< e.g. <http://dbpedia.org/resource/IBM>
  kLiteral,     ///< e.g. "1850", "Palo Alto"@en, "4.1"^^xsd:decimal
  kBlankNode,   ///< e.g. _:b42
};

/// An RDF term. Value semantics over an immutable, shared representation:
/// a Term is a handle, so copying one (as every decoded result cell does,
/// out of the Dictionary) bumps a reference count instead of copying its
/// strings. Handles are safe to copy and destroy from any number of threads
/// at once. Literals carry an optional language tag or datatype IRI
/// (mutually exclusive, per the RDF spec).
class Term {
 public:
  /// The IRI with an empty lexical form (holds no representation).
  Term() = default;
  Term(const Term& other) noexcept : rep_(other.rep_) { Ref(); }
  Term(Term&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Term& operator=(const Term& other) noexcept {
    Term copy(other);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  Term& operator=(Term&& other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Term() { Unref(); }

  /// Factory for an IRI term. \p iri is the IRI *without* angle brackets.
  static Term Iri(std::string iri);
  /// Factory for a plain literal.
  static Term Literal(std::string lexical);
  /// Factory for a language-tagged literal ("chat"@en).
  static Term LangLiteral(std::string lexical, std::string lang);
  /// Factory for a typed literal ("1"^^<http://...#integer>).
  static Term TypedLiteral(std::string lexical, std::string datatype_iri);
  /// Factory for a blank node; \p label without the "_:" prefix.
  static Term BlankNode(std::string label);

  TermKind kind() const { return rep_ ? rep_->kind : TermKind::kIri; }
  bool is_iri() const { return kind() == TermKind::kIri; }
  bool is_literal() const { return kind() == TermKind::kLiteral; }
  bool is_blank() const { return kind() == TermKind::kBlankNode; }

  /// IRI string, literal lexical form, or blank node label.
  const std::string& lexical() const {
    return rep_ ? rep_->lexical : EmptyString();
  }
  /// Language tag (empty when none).
  const std::string& language() const {
    return rep_ ? rep_->language : EmptyString();
  }
  /// Datatype IRI (empty when none).
  const std::string& datatype() const {
    return rep_ ? rep_->datatype : EmptyString();
  }

  /// Heap bytes of the shared representation this handle points to (0
  /// for a default-constructed term); shared by every copy.
  size_t SharedBytes() const;

  /// Canonical N-Triples serialization of this term.
  std::string ToNTriples() const;

  /// A canonical single-string key for dictionary encoding. Distinct terms
  /// always map to distinct keys.
  std::string DictionaryKey() const;

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  /// Total order (kind, lexical, language, datatype) for deterministic sorts.
  bool operator<(const Term& other) const;

 private:
  struct Rep {
    mutable std::atomic<uint32_t> refs{1};
    TermKind kind = TermKind::kIri;
    std::string lexical;
    std::string language;
    std::string datatype;
  };

  static Term Make(TermKind kind, std::string lexical, std::string language,
                   std::string datatype);
  static const std::string& EmptyString();
  void Ref() const {
    if (rep_ != nullptr) rep_->refs.fetch_add(1);
  }
  void Unref() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1) == 1) delete rep_;
  }

  const Rep* rep_ = nullptr;
};

/// The value of a numeric literal: one typed xsd:integer, xsd:decimal,
/// xsd:float, xsd:double or a type derived from xsd:integer, whose lexical
/// form is in the type's XSD lexical space ("5", "-2.5", "1e3" for double,
/// but not " 5", "0x10" or "inf"). nullopt for every other term; an
/// ill-typed literal is not a number. SPARQL compares
/// only these by value (SPARQL 1.1 §17.4.1.7): "5" is a string, and
/// "5"^^xsd:integer is the number 5.
std::optional<double> NumericValue(const Term& term);

/// True for a simple literal or an xsd:string literal. SPARQL compares
/// these by lexical form.
bool IsStringLiteral(const Term& term);

/// A subject-predicate-object triple of Terms.
struct Triple {
  Term subject;
  Term predicate;
  Term object;

  bool operator==(const Triple& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }

  /// N-Triples line (without trailing newline).
  std::string ToNTriples() const;
};

/// A triple with dictionary-encoded components (see Dictionary).
struct EncodedTriple {
  uint64_t subject = 0;
  uint64_t predicate = 0;
  uint64_t object = 0;

  bool operator==(const EncodedTriple& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }
};

}  // namespace rdfrel::rdf

#endif  // RDFREL_RDF_TERM_H_
