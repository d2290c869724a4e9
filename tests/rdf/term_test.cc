#include "rdf/term.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace rdfrel::rdf {
namespace {

TEST(TermTest, IriBasics) {
  Term t = Term::Iri("http://example.org/IBM");
  EXPECT_TRUE(t.is_iri());
  EXPECT_EQ(t.lexical(), "http://example.org/IBM");
  EXPECT_EQ(t.ToNTriples(), "<http://example.org/IBM>");
}

TEST(TermTest, PlainLiteral) {
  Term t = Term::Literal("Palo Alto");
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.ToNTriples(), "\"Palo Alto\"");
}

TEST(TermTest, LangLiteral) {
  Term t = Term::LangLiteral("chat", "en");
  EXPECT_EQ(t.language(), "en");
  EXPECT_EQ(t.ToNTriples(), "\"chat\"@en");
}

TEST(TermTest, TypedLiteral) {
  Term t = Term::TypedLiteral("1850", "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(t.datatype(), "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(t.ToNTriples(),
            "\"1850\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(TermTest, BlankNode) {
  Term t = Term::BlankNode("b1");
  EXPECT_TRUE(t.is_blank());
  EXPECT_EQ(t.ToNTriples(), "_:b1");
}

TEST(TermTest, LiteralEscaping) {
  Term t = Term::Literal("line1\nline2 \"quoted\"");
  EXPECT_EQ(t.ToNTriples(), "\"line1\\nline2 \\\"quoted\\\"\"");
}

TEST(TermTest, EqualityDistinguishesKind) {
  EXPECT_NE(Term::Iri("x"), Term::Literal("x"));
  EXPECT_NE(Term::Literal("x"), Term::BlankNode("x"));
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
}

TEST(TermTest, EqualityDistinguishesLangAndType) {
  EXPECT_NE(Term::Literal("a"), Term::LangLiteral("a", "en"));
  EXPECT_NE(Term::LangLiteral("a", "en"), Term::LangLiteral("a", "fr"));
  EXPECT_NE(Term::TypedLiteral("1", "t1"), Term::TypedLiteral("1", "t2"));
}

TEST(TermTest, DictionaryKeysDistinct) {
  // Same lexical form, different kinds/tags must never collide.
  EXPECT_NE(Term::Iri("x").DictionaryKey(), Term::Literal("x").DictionaryKey());
  EXPECT_NE(Term::Literal("x").DictionaryKey(),
            Term::LangLiteral("x", "en").DictionaryKey());
  EXPECT_NE(Term::LangLiteral("x", "en").DictionaryKey(),
            Term::TypedLiteral("x", "en").DictionaryKey());
  EXPECT_NE(Term::BlankNode("x").DictionaryKey(),
            Term::Iri("x").DictionaryKey());
}

TEST(TermTest, OrderingIsTotal) {
  Term a = Term::Iri("a"), b = Term::Iri("b");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(TripleTest, ToNTriples) {
  Triple t{Term::Iri("s"), Term::Iri("p"), Term::Literal("o")};
  EXPECT_EQ(t.ToNTriples(), "<s> <p> \"o\" .");
}

TEST(TermTest, NumericValueFollowsXsdLexicalSpace) {
  const std::string xsd = "http://www.w3.org/2001/XMLSchema#";
  auto num = [&](const std::string& lex, const std::string& type) {
    return NumericValue(Term::TypedLiteral(lex, xsd + type));
  };
  EXPECT_EQ(num("5", "integer"), 5.0);
  EXPECT_EQ(num("+5", "int"), 5.0);
  EXPECT_EQ(num("-12", "long"), -12.0);
  EXPECT_EQ(num("2.5", "decimal"), 2.5);
  EXPECT_EQ(num(".5", "decimal"), 0.5);
  EXPECT_EQ(num("5.", "decimal"), 5.0);
  EXPECT_EQ(num("1e3", "double"), 1000.0);
  EXPECT_EQ(num("-2.5E-1", "float"), -0.25);
  EXPECT_EQ(num("-INF", "double"), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(*num("NaN", "double")));
  // Ill-typed: outside the type's lexical space, so not a number.
  for (const char* lex : {" 5", "5 ", "0x10", "inf", "INF", "NaN", "1e3",
                          "2.5", "", "+", "-", "five"}) {
    EXPECT_FALSE(num(lex, "integer").has_value()) << '"' << lex << '"';
  }
  for (const char* lex : {"1e3", ".", "INF", "1.2.3", "0x1p3"}) {
    EXPECT_FALSE(num(lex, "decimal").has_value()) << '"' << lex << '"';
  }
  for (const char* lex : {"inf", "nan", "infinity", "1e", "e3", " 1"}) {
    EXPECT_FALSE(num(lex, "double").has_value()) << '"' << lex << '"';
  }
  // Only XSD numeric types are numbers; "5" alone is a string.
  EXPECT_FALSE(NumericValue(Term::Literal("5")).has_value());
  EXPECT_FALSE(
      NumericValue(Term::TypedLiteral("5", xsd + "string")).has_value());
  EXPECT_FALSE(NumericValue(Term::Iri("5")).has_value());
}

}  // namespace
}  // namespace rdfrel::rdf
