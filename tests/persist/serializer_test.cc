/// Serializer round-trips: the dictionary (the ISSUE's focus: empty store,
/// non-ASCII literals, >64KiB literals, id stability), statistics and the
/// triple-batch WAL payloads.

#include <gtest/gtest.h>

#include <string>

#include "persist/coding.h"
#include "persist/serializer.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "sql/catalog.h"

namespace rdfrel::persist {
namespace {

using rdf::Term;

TEST(PersistTestSerializer, EmptyDictionary) {
  rdf::Dictionary dict;
  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 0u);
}

TEST(PersistTestSerializer, DictionaryIdStability) {
  rdf::Dictionary dict;
  std::vector<Term> terms = {
      Term::Iri("http://x/a"),
      Term::Literal("plain"),
      Term::LangLiteral("bonjour", "fr"),
      Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::BlankNode("b0"),
  };
  std::vector<uint64_t> ids;
  for (const auto& t : terms) ids.push_back(dict.Encode(t));

  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), dict.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    // Same id resolves to the same term, and re-encoding is a no-op.
    EXPECT_EQ(out->Decode(ids[i]).value(), terms[i]);
    EXPECT_EQ(out->Lookup(terms[i]), ids[i]);
  }
  // New encodes continue the dense sequence.
  EXPECT_EQ(out->Encode(Term::Iri("http://x/new")), dict.size() + 1);
}

TEST(PersistTestSerializer, NonAsciiLiterals) {
  rdf::Dictionary dict;
  std::vector<Term> terms = {
      Term::Literal("größe éèê"),
      Term::Literal("日本語のテキスト"),
      Term::LangLiteral("Ĝis la revido", "eo"),
      Term::Literal(std::string("embedded\0nul", 12)),
      Term::Literal("emoji \xF0\x9F\x92\xBE"),
  };
  for (const auto& t : terms) dict.Encode(t);
  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const auto& t : terms) {
    EXPECT_EQ(out->Lookup(t), dict.Lookup(t)) << t.lexical();
  }
}

TEST(PersistTestSerializer, HugeLiteral) {
  rdf::Dictionary dict;
  std::string big(100 * 1024, 'x');  // > 64 KiB
  for (size_t i = 0; i < big.size(); i += 97) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  uint64_t id = dict.Encode(Term::Literal(big));
  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto t = out->Decode(id);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lexical(), big);
}

TEST(PersistTestSerializer, TruncatedDictionaryIsDataLoss) {
  rdf::Dictionary dict;
  dict.Encode(Term::Iri("http://x/a"));
  dict.Encode(Term::Literal("b"));
  std::string bytes = EncodeDictionary(dict);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto out = DecodeDictionary(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(out.ok()) << "truncation to " << len << " undetected";
  }
}

TEST(PersistTestSerializer, TripleBatchRoundTrip) {
  std::vector<rdf::Triple> batch = {
      {Term::Iri("http://x/s"), Term::Iri("http://x/p"),
       Term::Literal("o")},
      {Term::BlankNode("b1"), Term::Iri("http://x/q"),
       Term::LangLiteral("v", "en")},
  };
  auto out = DecodeTripleBatch(EncodeTripleBatch(batch));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*out)[i].subject, batch[i].subject);
    EXPECT_EQ((*out)[i].predicate, batch[i].predicate);
    EXPECT_EQ((*out)[i].object, batch[i].object);
  }
  EXPECT_TRUE(DecodeTripleBatch(EncodeTripleBatch(batch) + "junk")
                  .status()
                  .IsDataLoss());
}

TEST(PersistTestSerializer, StatisticsRoundTrip) {
  rdf::Graph g;
  g.Add({Term::Iri("http://x/a"), Term::Iri("http://x/p"),
         Term::Literal("1")});
  g.Add({Term::Iri("http://x/a"), Term::Iri("http://x/p"),
         Term::Literal("2")});
  g.Add({Term::Iri("http://x/b"), Term::Iri("http://x/q"),
         Term::Literal("1")});
  opt::Statistics stats = opt::Statistics::FromGraph(g, 10);
  auto out = DecodeStatistics(EncodeStatistics(stats));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->total_triples(), stats.total_triples());
  EXPECT_EQ(out->distinct_subjects(), stats.distinct_subjects());
  EXPECT_EQ(out->distinct_objects(), stats.distinct_objects());
  EXPECT_EQ(out->avg_triples_per_subject(), stats.avg_triples_per_subject());
  EXPECT_EQ(out->predicate_count_map(), stats.predicate_count_map());
  EXPECT_EQ(out->top_subject_counts(), stats.top_subject_counts());
  EXPECT_EQ(out->top_object_counts(), stats.top_object_counts());
}

TEST(PersistTestSerializer, TableIndexesOpenWhateverKindByte) {
  // Snapshots written before every index became one flat equality index
  // carry a kind byte of 0 (B+-tree) or 1 (hash); any value rebuilds the
  // same index, with the same postings.
  sql::Catalog catalog;
  auto table = catalog.CreateTable(
      "t", sql::Schema({{"id", sql::ValueType::kInt64},
                        {"name", sql::ValueType::kString}}));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({sql::Value::Int(i % 3),
                              sql::Value::Str("n" + std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE((*table)->CreateIndex("t_id", "id").ok());
  std::string bytes;
  EncodeTable(&bytes, **table);
  // The kind byte follows the index's column name ("id", length-prefixed).
  const size_t kind_at = bytes.find("t_id") + 4 + 4 + 2;
  ASSERT_LT(kind_at, bytes.size());
  for (int kind : {0, 1, 7}) {
    std::string patched = bytes;
    patched[kind_at] = static_cast<char>(kind);
    ByteReader r(patched);
    sql::Catalog reopened;
    ASSERT_TRUE(DecodeTableInto(&r, &reopened).ok()) << int{kind};
    auto t = reopened.GetTable("t");
    ASSERT_TRUE(t.ok());
    const sql::IndexInfo* idx = (*t)->FindIndexOn("id");
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(idx->Lookup(sql::Value::Int(1)).size(), 3u) << int{kind};
    EXPECT_EQ(idx->Lookup(sql::Value::Int(2)).size(), 3u) << int{kind};
    EXPECT_EQ(idx->Lookup(sql::Value::Int(0)).size(), 4u) << int{kind};
  }
}

}  // namespace
}  // namespace rdfrel::persist
