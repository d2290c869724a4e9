#include "sql/hash_index.h"

#include <algorithm>

namespace rdfrel::sql {

const std::vector<RowId> HashIndex::kEmpty;

void HashIndex::Insert(const Value& key, RowId rid) {
  auto& rids = map_[key];
  if (std::find(rids.begin(), rids.end(), rid) == rids.end()) {
    rids.push_back(rid);
    ++size_;
  }
}

void HashIndex::Append(const Value& key, RowId rid) {
  map_[key].push_back(rid);
  ++size_;
}

bool HashIndex::Remove(const Value& key, RowId rid) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  auto rit = std::find(it->second.begin(), it->second.end(), rid);
  if (rit == it->second.end()) return false;
  it->second.erase(rit);
  --size_;
  if (it->second.empty()) map_.erase(it);
  return true;
}

const std::vector<RowId>& HashIndex::Lookup(const Value& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? kEmpty : it->second;
}

bool HashIndex::Contains(const Value& key) const {
  return map_.count(key) > 0;
}

}  // namespace rdfrel::sql
