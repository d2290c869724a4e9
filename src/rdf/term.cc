#include "rdf/term.h"

#include <tuple>

#include "util/string_util.h"

namespace rdfrel::rdf {

Term Term::Make(TermKind kind, std::string lexical, std::string language,
                std::string datatype) {
  Rep* rep = new Rep;
  rep->kind = kind;
  rep->lexical = std::move(lexical);
  rep->language = std::move(language);
  rep->datatype = std::move(datatype);
  Term t;
  t.rep_ = rep;
  return t;
}

const std::string& Term::EmptyString() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}

Term Term::Iri(std::string iri) {
  return Make(TermKind::kIri, std::move(iri), {}, {});
}

Term Term::Literal(std::string lexical) {
  return Make(TermKind::kLiteral, std::move(lexical), {}, {});
}

Term Term::LangLiteral(std::string lexical, std::string lang) {
  return Make(TermKind::kLiteral, std::move(lexical), std::move(lang), {});
}

Term Term::TypedLiteral(std::string lexical, std::string datatype_iri) {
  return Make(TermKind::kLiteral, std::move(lexical), {},
              std::move(datatype_iri));
}

Term Term::BlankNode(std::string label) {
  return Make(TermKind::kBlankNode, std::move(label), {}, {});
}

size_t Term::SharedBytes() const {
  if (rep_ == nullptr) return 0;
  return sizeof(Rep) + rep_->lexical.capacity() +
         rep_->language.capacity() + rep_->datatype.capacity();
}

std::string Term::ToNTriples() const {
  switch (kind()) {
    case TermKind::kIri:
      return "<" + lexical() + ">";
    case TermKind::kBlankNode:
      return "_:" + lexical();
    case TermKind::kLiteral: {
      std::string out = "\"" + NtEscape(lexical()) + "\"";
      if (!language().empty()) {
        out += "@" + language();
      } else if (!datatype().empty()) {
        out += "^^<" + datatype() + ">";
      }
      return out;
    }
  }
  return "";
}

std::string Term::DictionaryKey() const {
  // Prefix with a kind tag so an IRI and a literal with the same lexical form
  // never collide; N-Triples syntax already guarantees this but the tag makes
  // the key self-describing for decode.
  switch (kind()) {
    case TermKind::kIri:
      return "I" + lexical();
    case TermKind::kBlankNode:
      return "B" + lexical();
    case TermKind::kLiteral:
      if (!language().empty()) return "L@" + language() + "\x1f" + lexical();
      if (!datatype().empty()) return "L^" + datatype() + "\x1f" + lexical();
      return "L\x1f" + lexical();
  }
  return "";
}

bool Term::operator==(const Term& other) const {
  if (rep_ == other.rep_) return true;
  return kind() == other.kind() && lexical() == other.lexical() &&
         language() == other.language() && datatype() == other.datatype();
}

bool Term::operator<(const Term& other) const {
  const TermKind a = kind();
  const TermKind b = other.kind();
  return std::tie(a, lexical(), language(), datatype()) <
         std::tie(b, other.lexical(), other.language(), other.datatype());
}

std::string Triple::ToNTriples() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples() + " .";
}

}  // namespace rdfrel::rdf
