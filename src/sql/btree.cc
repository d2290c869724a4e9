#include "sql/btree.h"

#include <algorithm>

#include "util/logging.h"

namespace rdfrel::sql {

struct BPlusTree::LeafEntry {
  Value key;
  std::vector<RowId> rids;
};

struct BPlusTree::Node {
  bool is_leaf = false;
  Node* parent = nullptr;

  // Internal node: keys_.size() + 1 == children_.size().
  std::vector<Value> keys;
  std::vector<Node*> children;

  // Leaf node.
  std::vector<LeafEntry> entries;
  Node* next_leaf = nullptr;
  Node* prev_leaf = nullptr;
};

namespace {
// Key comparisons run O(log n) times per probe and DB2RDF keys are all
// BIGINT ids, so the both-int64 case skips Value::Compare's type dispatch.
bool ValueLess(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return a.AsInt() < b.AsInt();
  return a.Compare(b) < 0;
}

bool KeyEquals(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
  return a.Compare(b) == 0;
}

const std::vector<RowId> kNoRids;
}  // namespace

BPlusTree::BPlusTree(size_t fanout) : fanout_(std::max<size_t>(fanout, 4)) {
  root_ = new Node();
  root_->is_leaf = true;
}

BPlusTree::~BPlusTree() { FreeTree(root_); }

void BPlusTree::FreeTree(Node* node) {
  if (!node->is_leaf) {
    for (Node* c : node->children) FreeTree(c);
  }
  delete node;
}

BPlusTree::Node* BPlusTree::FindLeaf(const Value& key) const {
  Node* n = root_;
  while (!n->is_leaf) {
    // children[i] holds keys < keys[i]; child[i+1] holds keys >= keys[i].
    auto i = static_cast<size_t>(
        std::upper_bound(n->keys.begin(), n->keys.end(), key, ValueLess) -
        n->keys.begin());
    n = n->children[i];
  }
  return n;
}

void BPlusTree::Insert(const Value& key, RowId rid) {
  Node* leaf = FindLeaf(key);
  InsertIntoLeaf(leaf, key, rid, /*dedupe=*/true);
  if (leaf->entries.size() >= fanout_) SplitLeaf(leaf);
}

void BPlusTree::Append(const Value& key, RowId rid) {
  Node* leaf = FindLeaf(key);
  InsertIntoLeaf(leaf, key, rid, /*dedupe=*/false);
  if (leaf->entries.size() >= fanout_) SplitLeaf(leaf);
}

void BPlusTree::InsertIntoLeaf(Node* leaf, const Value& key, RowId rid,
                               bool dedupe) {
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), key,
      [](const LeafEntry& e, const Value& k) { return ValueLess(e.key, k); });
  if (it != leaf->entries.end() && KeyEquals(it->key, key)) {
    if (!dedupe ||
        std::find(it->rids.begin(), it->rids.end(), rid) == it->rids.end()) {
      it->rids.push_back(rid);
      ++size_;
    }
    return;
  }
  leaf->entries.insert(it, LeafEntry{key, {rid}});
  ++size_;
  ++num_keys_;
}

void BPlusTree::SplitLeaf(Node* leaf) {
  auto* right = new Node();
  right->is_leaf = true;
  size_t mid = leaf->entries.size() / 2;
  right->entries.assign(
      std::make_move_iterator(leaf->entries.begin() +
                              static_cast<std::ptrdiff_t>(mid)),
                        std::make_move_iterator(leaf->entries.end()));
  leaf->entries.resize(mid);

  right->next_leaf = leaf->next_leaf;
  if (right->next_leaf) right->next_leaf->prev_leaf = right;
  leaf->next_leaf = right;
  right->prev_leaf = leaf;

  InsertIntoParent(leaf, right->entries.front().key, right);
}

void BPlusTree::InsertIntoParent(Node* left, Value sep, Node* right) {
  if (left == root_) {
    auto* new_root = new Node();
    new_root->keys.push_back(std::move(sep));
    new_root->children = {left, right};
    left->parent = new_root;
    right->parent = new_root;
    root_ = new_root;
    return;
  }
  Node* parent = left->parent;
  auto pos = std::find(parent->children.begin(), parent->children.end(), left);
  RDFREL_CHECK(pos != parent->children.end());
  auto idx = pos - parent->children.begin();
  parent->keys.insert(parent->keys.begin() + idx, std::move(sep));
  parent->children.insert(parent->children.begin() + idx + 1, right);
  right->parent = parent;
  if (parent->children.size() > fanout_) SplitInternal(parent);
}

void BPlusTree::SplitInternal(Node* node) {
  auto* right = new Node();
  size_t mid = node->keys.size() / 2;
  Value sep = std::move(node->keys[mid]);

  const auto smid = static_cast<std::ptrdiff_t>(mid);
  right->keys.assign(std::make_move_iterator(node->keys.begin() + smid + 1),
                     std::make_move_iterator(node->keys.end()));
  right->children.assign(node->children.begin() + smid + 1,
                         node->children.end());
  for (Node* c : right->children) c->parent = right;

  node->keys.resize(mid);
  node->children.resize(mid + 1);

  InsertIntoParent(node, std::move(sep), right);
}

bool BPlusTree::Remove(const Value& key, RowId rid) {
  Node* leaf = FindLeaf(key);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), key,
      [](const LeafEntry& e, const Value& k) { return ValueLess(e.key, k); });
  if (it == leaf->entries.end() || !KeyEquals(it->key, key)) return false;
  auto rit = std::find(it->rids.begin(), it->rids.end(), rid);
  if (rit == it->rids.end()) return false;
  it->rids.erase(rit);
  --size_;
  if (it->rids.empty()) {
    leaf->entries.erase(it);
    --num_keys_;
    // Underflow rebalancing is intentionally omitted: postings-list deletes
    // are rare in our workloads (loads are append-heavy), and lookups stay
    // correct on sparse leaves.
  }
  return true;
}

const std::vector<RowId>& BPlusTree::Lookup(const Value& key) const {
  Node* leaf = FindLeaf(key);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), key,
      [](const LeafEntry& e, const Value& k) { return ValueLess(e.key, k); });
  if (it == leaf->entries.end() || !KeyEquals(it->key, key)) return kNoRids;
  return it->rids;
}

bool BPlusTree::Contains(const Value& key) const {
  return !Lookup(key).empty();
}

void BPlusTree::Range(
    const std::optional<Value>& lo, const std::optional<Value>& hi,
    const std::function<bool(const Value&, RowId)>& fn) const {
  Node* leaf;
  size_t start = 0;
  if (lo.has_value()) {
    leaf = FindLeaf(*lo);
    start = static_cast<size_t>(
        std::lower_bound(leaf->entries.begin(), leaf->entries.end(), *lo,
                         [](const LeafEntry& e, const Value& k) {
                           return ValueLess(e.key, k);
                         }) -
        leaf->entries.begin());
  } else {
    Node* n = root_;
    while (!n->is_leaf) n = n->children.front();
    leaf = n;
  }
  for (Node* l = leaf; l != nullptr; l = l->next_leaf) {
    for (size_t i = (l == leaf ? start : 0); i < l->entries.size(); ++i) {
      const LeafEntry& e = l->entries[i];
      if (hi.has_value() && e.key.Compare(*hi) > 0) return;
      for (RowId rid : e.rids) {
        if (!fn(e.key, rid)) return;
      }
    }
  }
}

void BPlusTree::ScanAll(
    const std::function<bool(const Value&, RowId)>& fn) const {
  Range(std::nullopt, std::nullopt, fn);
}

size_t BPlusTree::height() const {
  size_t h = 1;
  Node* n = root_;
  while (!n->is_leaf) {
    n = n->children.front();
    ++h;
  }
  return h;
}

Status BPlusTree::CheckInvariants() const {
  // 1. All leaves at equal depth; 2. keys sorted in every node; 3. leaf
  // chain sorted globally; 4. child counts consistent.
  size_t leaf_depth = height();
  std::function<Status(const Node*, size_t)> walk =
      [&](const Node* n, size_t depth) -> Status {
    if (n->is_leaf) {
      if (depth != leaf_depth) {
        return Status::Internal("leaf at depth " + std::to_string(depth) +
                                " != " + std::to_string(leaf_depth));
      }
      for (size_t i = 1; i < n->entries.size(); ++i) {
        if (n->entries[i - 1].key.Compare(n->entries[i].key) >= 0) {
          return Status::Internal("unsorted leaf entries");
        }
      }
      for (const auto& e : n->entries) {
        if (e.rids.empty()) return Status::Internal("empty postings list");
      }
      return Status::OK();
    }
    if (n->children.size() != n->keys.size() + 1) {
      return Status::Internal("internal node arity mismatch");
    }
    for (size_t i = 1; i < n->keys.size(); ++i) {
      if (n->keys[i - 1].Compare(n->keys[i]) >= 0) {
        return Status::Internal("unsorted internal keys");
      }
    }
    for (const Node* c : n->children) {
      if (c->parent != n) return Status::Internal("bad parent pointer");
      RDFREL_RETURN_NOT_OK(walk(c, depth + 1));
    }
    return Status::OK();
  };
  RDFREL_RETURN_NOT_OK(walk(root_, 1));

  // Leaf chain is globally sorted and covers exactly `size_` postings.
  size_t seen = 0;
  const Value* prev = nullptr;
  Status chain_ok = Status::OK();
  ScanAll([&](const Value& k, RowId) {
    if (prev && prev->Compare(k) > 0) {
      chain_ok = Status::Internal("leaf chain out of order");
      return false;
    }
    prev = &k;
    ++seen;
    return true;
  });
  RDFREL_RETURN_NOT_OK(chain_ok);
  if (seen != size_) {
    return Status::Internal("posting count mismatch: scanned " +
                            std::to_string(seen) + ", size() says " +
                            std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace rdfrel::sql
