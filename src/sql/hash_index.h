#ifndef RDFREL_SQL_HASH_INDEX_H_
#define RDFREL_SQL_HASH_INDEX_H_

/// \file hash_index.h
/// The equality index behind every secondary index: Value -> [RowId] in one
/// flat open-addressing table (linear probing, backward-shift deletion).
/// The engine only ever asks an index for the postings of one key — the
/// DB2RDF `entry` and `l_id` probes and the baselines' id columns — so
/// there is no ordered structure.
///
/// Keys follow Value's equality (operator==/Hash): 5 and 5.0 are one key,
/// a string never equals a number, and NULL equals only NULL. Int64 keys
/// (and integral doubles) take a fast path: the slot holds the integer
/// itself, and a probe compares integers without touching a Value. Any
/// other key lives in a side vector the slot indexes. A key with a single
/// posting keeps it inline in its slot; only keys with several postings
/// own a heap vector.

#include <cstdint>
#include <span>
#include <vector>

#include "sql/page.h"
#include "sql/value.h"

namespace rdfrel::sql {

class HashIndex {
 public:
  HashIndex() = default;

  /// Adds (key, rid) for a rid not posted under \p key yet — every table
  /// mutation posts a freshly allocated or just-removed rid, so there is no
  /// duplicate scan. Postings of one key keep their insertion order.
  void Append(const Value& key, RowId rid);
  /// Removes one posting, keeping the order of the rest; returns false
  /// when absent.
  bool Remove(const Value& key, RowId rid);
  /// RowIds for an exact key; empty when absent. Borrowed from the index's
  /// own storage: valid until the next mutation of the index.
  std::span<const RowId> Lookup(const Value& key) const;
  bool Contains(const Value& key) const {
    return FindSlot(MakeKey(key)) != kNoSlot;
  }

  /// Number of (key, rid) postings.
  size_t size() const { return size_; }
  /// Number of distinct keys.
  size_t num_keys() const { return num_keys_; }
  /// Number of slots in the table (a power of two, or 0 before the first
  /// insert); grows so that at most 3/4 are occupied.
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kNoSlot = SIZE_MAX;
  static constexpr uint32_t kInline = UINT32_MAX;

  enum class SlotState : uint8_t { kEmpty = 0, kInt, kOther };

  struct Slot {
    uint64_t key = 0;  ///< the int64 key, or an index into other_keys_
    RowId rid;         ///< the only posting, when list == kInline
    uint32_t list = kInline;  ///< kInline, or an index into lists_
    SlotState state = SlotState::kEmpty;
  };

  /// A normalized probe key: an integer (int64 or integral double), or a
  /// borrowed Value compared through other_keys_.
  struct Key {
    bool is_int = false;
    int64_t i = 0;
    const Value* v = nullptr;
    uint64_t hash = 0;
  };
  static Key MakeKey(const Value& key);
  uint64_t SlotHash(const Slot& s) const;
  bool Matches(const Slot& s, const Key& k) const;

  size_t FindSlot(const Key& k) const;
  /// The slot of \p key, inserted (with no postings yet) when absent;
  /// \p *fresh tells which.
  size_t FindOrInsert(const Value& key, bool* fresh);
  /// Adds \p rid to the postings of the (non-fresh) slot \p i.
  void AddPosting(size_t i, RowId rid);
  /// Empties slot \p i, shifting later members of its probe run back.
  void EraseSlot(size_t i);
  void Grow();

  std::vector<Slot> slots_;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
  size_t num_keys_ = 0;
  size_t size_ = 0;
  std::vector<std::vector<RowId>> lists_;  ///< multi-posting keys
  std::vector<uint32_t> free_lists_;
  std::vector<Value> other_keys_;  ///< non-integer keys
  std::vector<uint32_t> free_keys_;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_HASH_INDEX_H_
