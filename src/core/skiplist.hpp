// Skip list with O(1) head deletion — the building block of the Double Skip
// List (paper Section IV-B, Fig. 4).
//
// The paper uses the *deterministic* 1-2-3 skip list of Munro, Papadakis &
// Sedgewick for worst-case O(log n) bounds. We implement the classic
// seeded-randomized skip list (Pugh) instead: identical interface, identical
// O(1) pop_front, expected-O(log n) insert/erase, and — because the level
// generator is seeded per instance — fully deterministic experiment runs.
// The Fig. 13(a) comparison (DSL vs BST vs naive) is about head-access
// locality, not worst-vs-expected case; DESIGN.md records the substitution.
//
// Performance notes (they decide the Fig. 13(a) outcome against std::map,
// whose red-black nodes are ~56 bytes with a cached leftmost pointer):
//  * nodes carry exactly `height` forward pointers (flexible-array layout,
//    one allocation) — the expected node is ~48 bytes, not a fixed
//    kMaxLevel tower;
//  * erased nodes go to height-bucketed free lists — the scheduler's
//    reposition pattern (erase + insert on every AssignTask) then runs
//    allocation-free;
//  * searches start at the current tallest level, not the static maximum.
//
// Keys are unique (the Double Skip List composes (priority, workflow-id) /
// (time, workflow-id) pairs to guarantee that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace woha::core {

template <class Key, class Value, class Compare = std::less<Key>>
class SkipList {
 public:
  static constexpr int kMaxLevel = 24;  // comfortably covers > 10^7 entries

  explicit SkipList(std::uint64_t seed = 0x5bd1e995u) : rng_state_(seed | 1) {
    for (auto& f : free_) f = nullptr;
    head_ = allocate_raw(kMaxLevel);
    head_->height = kMaxLevel;
    for (int i = 0; i < kMaxLevel; ++i) head_->next[i] = nullptr;
  }

  ~SkipList() {
    Node* n = head_->next[0];
    while (n) {
      Node* next = n->next[0];
      destroy(n);
      n = next;
    }
    ::operator delete(head_);  // head has no constructed key/value
    for (auto* f : free_) {
      while (f) {
        Node* next = f->next[0];
        f->key.~Key();
        f->value.~Value();
        ::operator delete(f);
        f = next;
      }
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Insert a unique key. Returns false (and changes nothing) on duplicate.
  bool insert(const Key& key, Value value) {
    Node* update[kMaxLevel];
    Node* n = find_predecessors(key, update);
    Node* candidate = n->next[0];
    if (candidate && equal(candidate->key, key)) return false;

    const int lvl = random_level();
    Node* node = acquire(lvl, key, std::move(value));
    if (lvl > level_) level_ = lvl;  // update[] already points at head there
    for (int i = 0; i < lvl; ++i) {
      node->next[i] = update[i]->next[i];
      update[i]->next[i] = node;
    }
    ++size_;
    return true;
  }

  /// Erase by key. Returns false when absent.
  bool erase(const Key& key) {
    Node* update[kMaxLevel];
    Node* n = find_predecessors(key, update);
    Node* target = n->next[0];
    if (!target || !equal(target->key, key)) return false;
    for (int i = 0; i < target->height; ++i) {
      if (update[i]->next[i] == target) update[i]->next[i] = target->next[i];
    }
    release(target);
    --size_;
    return true;
  }

  [[nodiscard]] const Value* find(const Key& key) const {
    const Node* n = head_;
    for (int i = level_ - 1; i >= 0; --i) {
      while (n->next[i] && cmp_(n->next[i]->key, key)) n = n->next[i];
    }
    const Node* candidate = n->next[0];
    return candidate && equal(candidate->key, key) ? &candidate->value : nullptr;
  }

  [[nodiscard]] bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Smallest key/value. Throws on empty.
  [[nodiscard]] std::pair<const Key&, const Value&> front() const {
    require_nonempty();
    const Node* n = head_->next[0];
    return {n->key, n->value};
  }

  /// Remove and return the smallest entry. O(height of head node) —
  /// constant expected time, independent of size. This is the operation the
  /// Double Skip List exists for.
  std::pair<Key, Value> pop_front() {
    require_nonempty();
    Node* n = head_->next[0];
    for (int i = 0; i < n->height; ++i) head_->next[i] = n->next[i];
    std::pair<Key, Value> out{std::move(n->key), std::move(n->value)};
    release(n);
    --size_;
    return out;
  }

  /// Forward iteration over (key, value) in ascending key order. The
  /// visitor returns false to stop early.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for (const Node* n = head_->next[0]; n; n = n->next[0]) {
      if (!visit(n->key, n->value)) return;
    }
  }

  /// Forward iteration starting at the first key >= `from` (an O(log n)
  /// tower descent, then the level-0 chain). The visitor returns false to
  /// stop early. This is what lets AssignTask resume a priority walk past
  /// an already-probed prefix instead of re-walking it node by node.
  template <class Visitor>
  void for_each_from(const Key& from, Visitor&& visit) const {
    const Node* n = head_;
    for (int i = level_ - 1; i >= 0; --i) {
      while (n->next[i] && cmp_(n->next[i]->key, from)) n = n->next[i];
    }
    for (n = n->next[0]; n; n = n->next[0]) {
      if (!visit(n->key, n->value)) return;
    }
  }

  /// Structural audit: keys strictly ascend along the level-0 chain and the
  /// chain holds exactly size() entries. Throws std::logic_error on
  /// corruption. O(n).
  void validate() const {
    std::size_t count = 0;
    const Node* prev = nullptr;
    for (const Node* n = head_->next[0]; n; prev = n, n = n->next[0]) {
      if (prev != nullptr && !cmp_(prev->key, n->key)) {
        throw std::logic_error("SkipList: keys not strictly ascending");
      }
      ++count;
    }
    if (count != size_) {
      throw std::logic_error("SkipList: node count " + std::to_string(count) +
                             " != size " + std::to_string(size_));
    }
  }

 private:
  struct Node {
    Key key;
    Value value;
    int height;
    Node* next[1];  // flexible-array idiom: `height` forward pointers
  };

  [[nodiscard]] static std::size_t node_bytes(int height) {
    return sizeof(Node) + sizeof(Node*) * static_cast<std::size_t>(height - 1);
  }

  /// Raw storage with room for `height` forward pointers; key/value are NOT
  /// constructed.
  static Node* allocate_raw(int height) {
    return static_cast<Node*>(::operator new(node_bytes(height)));
  }

  Node* acquire(int height, const Key& key, Value&& value) {
    Node* n = free_[height];
    if (n) {
      // Recycled node: key/value are still constructed (moved-from) —
      // assign over them.
      free_[height] = n->next[0];
      --free_count_;
      n->key = key;
      n->value = std::move(value);
    } else {
      n = allocate_raw(height);
      new (&n->key) Key(key);
      new (&n->value) Value(std::move(value));
      n->height = height;
    }
    return n;
  }

  void release(Node* n) {
    if (free_count_ < kMaxFreeNodes) {
      n->next[0] = free_[n->height];
      free_[n->height] = n;
      ++free_count_;
    } else {
      destroy(n);
    }
  }

  static void destroy(Node* n) {
    n->key.~Key();
    n->value.~Value();
    ::operator delete(n);
  }

  [[nodiscard]] bool equal(const Key& a, const Key& b) const {
    return !cmp_(a, b) && !cmp_(b, a);
  }

  void require_nonempty() const {
    if (empty()) throw std::logic_error("SkipList: empty");
  }

  Node* find_predecessors(const Key& key, Node** update) const {
    Node* n = head_;
    for (int i = kMaxLevel - 1; i >= level_; --i) update[i] = head_;
    for (int i = level_ - 1; i >= 0; --i) {
      while (n->next[i] && cmp_(n->next[i]->key, key)) n = n->next[i];
      update[i] = n;
    }
    return n;
  }

  int random_level() {
    // xorshift64*; geometric levels with p = 1/4.
    std::uint64_t x = rng_state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_state_ = x;
    std::uint64_t bits = x * 0x2545f4914f6cdd1dull;
    int lvl = 1;
    while (lvl < kMaxLevel && (bits & 3) == 0) {
      ++lvl;
      bits >>= 2;
    }
    return lvl;
  }

  static constexpr std::size_t kMaxFreeNodes = 4096;

  Node* head_;
  Node* free_[kMaxLevel + 1];
  std::size_t free_count_ = 0;
  std::size_t size_ = 0;
  int level_ = 1;  // current tallest occupied level
  std::uint64_t rng_state_;
  Compare cmp_{};
};

}  // namespace woha::core
