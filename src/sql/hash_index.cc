#include "sql/hash_index.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rdfrel::sql {

namespace {

/// Fibonacci hashing: the top bits of hash * 2^64/phi pick the home slot,
/// which spreads dense integer ids as well as arbitrary hashes.
constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr size_t kMinSlots = 16;

}  // namespace

HashIndex::Key HashIndex::MakeKey(const Value& key) {
  if (key.is_int()) {
    const int64_t i = key.AsInt();
    return {true, i, &key, static_cast<uint64_t>(i)};
  }
  if (key.is_double()) {
    // An integral double equals the int64 of the same value (Value's
    // equality), so it takes the integer path; the range matches Hash().
    const double d = key.AsDouble();
    if (std::floor(d) == d && d >= -9.2e18 && d <= 9.2e18) {
      const int64_t i = static_cast<int64_t>(d);
      return {true, i, &key, static_cast<uint64_t>(i)};
    }
  }
  return {false, 0, &key, key.Hash()};
}

uint64_t HashIndex::SlotHash(const Slot& s) const {
  return s.state == SlotState::kInt ? s.key : other_keys_[s.key].Hash();
}

bool HashIndex::Matches(const Slot& s, const Key& k) const {
  if (k.is_int) {
    return s.state == SlotState::kInt && static_cast<int64_t>(s.key) == k.i;
  }
  return s.state == SlotState::kOther && other_keys_[s.key] == *k.v;
}

size_t HashIndex::FindSlot(const Key& k) const {
  if (slots_.empty()) return kNoSlot;
  const size_t mask = slots_.size() - 1;
  for (size_t i = (k.hash * kGolden) >> shift_;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.state == SlotState::kEmpty) return kNoSlot;
    if (Matches(s, k)) return i;
  }
}

std::span<const RowId> HashIndex::Lookup(const Value& key) const {
  const size_t i = FindSlot(MakeKey(key));
  if (i == kNoSlot) return {};
  const Slot& s = slots_[i];
  if (s.list == kInline) return {&s.rid, 1};
  return lists_[s.list];
}

void HashIndex::Grow() {
  const size_t cap = std::max(kMinSlots, slots_.size() * 2);
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{});
  shift_ = 64 - std::countr_zero(cap);
  const size_t mask = cap - 1;
  for (const Slot& s : old) {
    if (s.state == SlotState::kEmpty) continue;
    size_t i = (SlotHash(s) * kGolden) >> shift_;
    while (slots_[i].state != SlotState::kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

size_t HashIndex::FindOrInsert(const Value& key, bool* fresh) {
  // Grow first, so one probe either finds the key or stops at the empty
  // slot it goes into.
  if ((num_keys_ + 1) * 4 > slots_.size() * 3) Grow();
  const Key k = MakeKey(key);
  const size_t mask = slots_.size() - 1;
  size_t i = (k.hash * kGolden) >> shift_;
  for (; slots_[i].state != SlotState::kEmpty; i = (i + 1) & mask) {
    if (Matches(slots_[i], k)) {
      *fresh = false;
      return i;
    }
  }
  Slot& s = slots_[i];
  if (k.is_int) {
    s.state = SlotState::kInt;
    s.key = static_cast<uint64_t>(k.i);
  } else {
    s.state = SlotState::kOther;
    if (free_keys_.empty()) {
      s.key = other_keys_.size();
      other_keys_.push_back(key);
    } else {
      s.key = free_keys_.back();
      free_keys_.pop_back();
      other_keys_[s.key] = key;
    }
  }
  s.list = kInline;
  ++num_keys_;
  *fresh = true;
  return i;
}

void HashIndex::AddPosting(size_t i, RowId rid) {
  Slot& s = slots_[i];
  if (s.list != kInline) {
    lists_[s.list].push_back(rid);
    return;
  }
  // A second posting: the key moves to a heap list.
  uint32_t li;
  if (free_lists_.empty()) {
    li = static_cast<uint32_t>(lists_.size());
    lists_.emplace_back();
  } else {
    li = free_lists_.back();
    free_lists_.pop_back();
  }
  lists_[li] = {s.rid, rid};
  s.list = li;
}

void HashIndex::Append(const Value& key, RowId rid) {
  bool fresh = false;
  const size_t i = FindOrInsert(key, &fresh);
  if (fresh) {
    slots_[i].rid = rid;
  } else {
    AddPosting(i, rid);
  }
  ++size_;
}

bool HashIndex::Remove(const Value& key, RowId rid) {
  const size_t i = FindSlot(MakeKey(key));
  if (i == kNoSlot) return false;
  Slot& s = slots_[i];
  if (s.list == kInline) {
    if (!(s.rid == rid)) return false;
    EraseSlot(i);
  } else {
    std::vector<RowId>& rids = lists_[s.list];
    auto it = std::find(rids.begin(), rids.end(), rid);
    if (it == rids.end()) return false;
    rids.erase(it);
    if (rids.size() == 1) {
      // Back to one posting: inline again, and the list's memory goes.
      s.rid = rids.front();
      std::vector<RowId>().swap(rids);
      free_lists_.push_back(s.list);
      s.list = kInline;
    }
  }
  --size_;
  return true;
}

void HashIndex::EraseSlot(size_t i) {
  if (slots_[i].state == SlotState::kOther) {
    other_keys_[slots_[i].key] = Value::Null();
    free_keys_.push_back(static_cast<uint32_t>(slots_[i].key));
  }
  --num_keys_;
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless its home lies cyclically in (hole, member].
  const size_t mask = slots_.size() - 1;
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    const Slot& s = slots_[j];
    if (s.state == SlotState::kEmpty) break;
    const size_t home = (SlotHash(s) * kGolden) >> shift_;
    const bool stays = i <= j ? (i < home && home <= j)
                              : (i < home || home <= j);
    if (stays) continue;
    slots_[i] = s;
    i = j;
  }
  slots_[i] = Slot{};
}

}  // namespace rdfrel::sql
