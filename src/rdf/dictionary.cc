#include "rdf/dictionary.h"

namespace rdfrel::rdf {

Dictionary::Dictionary() = default;

uint64_t Dictionary::Encode(const Term& term) {
  std::string key = term.DictionaryKey();
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  terms_.push_back(term);
  uint64_t id = terms_.size();  // ids start at 1
  index_.emplace(std::move(key), id);
  return id;
}

uint64_t Dictionary::Lookup(const Term& term) const {
  auto it = index_.find(term.DictionaryKey());
  return it == index_.end() ? 0 : it->second;
}

Result<Term> Dictionary::Decode(uint64_t id) const {
  if (id == 0 || id > terms_.size()) {
    return Status::NotFound("dictionary id " + std::to_string(id) +
                            " out of range");
  }
  return terms_[id - 1];
}

EncodedTriple Dictionary::EncodeTriple(const Triple& triple) {
  EncodedTriple et;
  et.subject = Encode(triple.subject);
  et.predicate = Encode(triple.predicate);
  et.object = Encode(triple.object);
  return et;
}

Result<Triple> Dictionary::DecodeTriple(const EncodedTriple& et) const {
  Triple t;
  RDFREL_ASSIGN_OR_RETURN(t.subject, Decode(et.subject));
  RDFREL_ASSIGN_OR_RETURN(t.predicate, Decode(et.predicate));
  RDFREL_ASSIGN_OR_RETURN(t.object, Decode(et.object));
  return t;
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [key, id] : index_) {
    bytes += key.capacity() + sizeof(uint64_t) + 32;  // bucket overhead est.
    (void)id;
  }
  // Each term's shared representation once: decoded copies share it.
  bytes += terms_.capacity() * sizeof(Term);
  for (const auto& t : terms_) bytes += t.SharedBytes();
  return bytes;
}

}  // namespace rdfrel::rdf
