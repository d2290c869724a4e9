#include "rdf/term.h"

#include <array>
#include <cstdlib>
#include <string_view>
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

namespace {
constexpr std::string_view kXsd = "http://www.w3.org/2001/XMLSchema#";
constexpr std::string_view kXsdString =
    "http://www.w3.org/2001/XMLSchema#string";

/// The three lexical grammars of the XSD numeric types (XML Schema 1.1
/// Part 2, 3.3.3 decimal, 3.3.5 double, 3.3.13 integer).
enum class NumericGrammar { kInteger, kDecimal, kFloating };

std::optional<NumericGrammar> GrammarOf(std::string_view datatype) {
  static constexpr std::array<std::string_view, 13> kIntegerTypes = {
      "integer",         "int",           "long",
      "short",           "byte",          "nonNegativeInteger",
      "positiveInteger", "negativeInteger", "nonPositiveInteger",
      "unsignedInt",     "unsignedLong",  "unsignedShort",
      "unsignedByte"};
  if (datatype.substr(0, kXsd.size()) != kXsd) return std::nullopt;
  datatype.remove_prefix(kXsd.size());
  if (datatype == "decimal") return NumericGrammar::kDecimal;
  if (datatype == "double" || datatype == "float") {
    return NumericGrammar::kFloating;
  }
  for (std::string_view t : kIntegerTypes) {
    if (datatype == t) return NumericGrammar::kInteger;
  }
  return std::nullopt;
}

/// Advances \p i over ASCII digits; true if it passed at least one.
bool SkipDigits(std::string_view s, size_t* i) {
  const size_t start = *i;
  while (*i < s.size() && s[*i] >= '0' && s[*i] <= '9') ++*i;
  return *i > start;
}

/// True if \p lex is in the lexical space of \p grammar: an optional sign
/// and digits, a decimal point for decimal and floating, an exponent, INF
/// and NaN for floating only. No whitespace, hex or "inf" spellings.
bool MatchesGrammar(std::string_view lex, NumericGrammar grammar) {
  if (grammar == NumericGrammar::kFloating &&
      (lex == "INF" || lex == "+INF" || lex == "-INF" || lex == "NaN")) {
    return true;
  }
  size_t i = 0;
  if (i < lex.size() && (lex[i] == '+' || lex[i] == '-')) ++i;
  const bool whole = SkipDigits(lex, &i);
  if (grammar == NumericGrammar::kInteger) return whole && i == lex.size();
  bool fraction = false;
  if (i < lex.size() && lex[i] == '.') {
    ++i;
    fraction = SkipDigits(lex, &i);
  }
  if (!whole && !fraction) return false;
  if (grammar == NumericGrammar::kFloating && i < lex.size() &&
      (lex[i] == 'e' || lex[i] == 'E')) {
    ++i;
    if (i < lex.size() && (lex[i] == '+' || lex[i] == '-')) ++i;
    if (!SkipDigits(lex, &i)) return false;
  }
  return i == lex.size();
}
}  // namespace

std::optional<double> NumericValue(const Term& term) {
  if (!term.is_literal()) return std::nullopt;
  const std::optional<NumericGrammar> grammar = GrammarOf(term.datatype());
  if (!grammar.has_value()) return std::nullopt;
  const std::string& lex = term.lexical();
  if (!MatchesGrammar(lex, *grammar)) return std::nullopt;
  // strtod reads every form the grammar admits, INF and NaN included.
  return std::strtod(lex.c_str(), nullptr);
}

bool IsStringLiteral(const Term& term) {
  return term.is_literal() && term.language().empty() &&
         (term.datatype().empty() || term.datatype() == kXsdString);
}

std::string Triple::ToNTriples() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples() + " .";
}

}  // namespace rdfrel::rdf
