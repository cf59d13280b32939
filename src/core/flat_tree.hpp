// Arena-backed AVL tree — the balanced-BST ordering of the scheduler queue
// (paper Fig. 13(a), "WOHA-BST"; see indexed_queue.hpp).
//
// std::map's red-black nodes are ~56-byte individual heap allocations, so a
// root-to-leaf descent at 100k queued workflows is a chain of cold cache
// misses. Here every node lives in one contiguous std::vector and links are
// 32-bit indices: a node is 32 bytes for the queue's 16-byte (key, id)
// pairs, erased nodes go to a free list so the scheduler's reposition
// pattern (erase + insert per AssignTask) runs allocation-free, and index
// links survive vector growth (no pointer fixups).
//
// The ablation's head-access cost model is the `kHead` template parameter,
// used by front() and pop_front():
//   * HeadAccess::kCachedMin — O(1) cached leftmost (std::map's begin(),
//                              "BST"), and
//   * HeadAccess::kDescend   — a root-to-leftmost walk on every head access
//                              (the textbook balanced BST of the paper's
//                              comparison, "BSTplain").
// Keys are unique (the queue composes (key, workflow-id) pairs).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace woha::core {

/// How a FlatTree reaches its smallest entry (the Fig. 13(a) cost model).
enum class HeadAccess : std::uint8_t { kCachedMin, kDescend };

template <class Key, HeadAccess kHead = HeadAccess::kCachedMin>
class FlatTree {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Insert a unique key. Returns false (and changes nothing) on duplicate.
  bool insert(const Key& key, std::uint32_t value) {
    bool inserted = false;
    root_ = insert_rec(root_, key, value, inserted);
    if (inserted) {
      ++size_;
      if (min_ == kNil || key < nodes_[min_].key) min_ = last_alloc_;
    }
    return inserted;
  }

  /// Erase by key. Returns false when absent.
  bool erase(const Key& key) {
    const bool was_min =
        min_ != kNil && !(nodes_[min_].key < key) && !(key < nodes_[min_].key);
    bool erased = false;
    root_ = erase_rec(root_, key, erased);
    if (erased) {
      --size_;
      if (was_min) min_ = leftmost(root_);
    }
    return erased;
  }

  /// O(1) cached leftmost node (kNil when empty) — std::map-style begin().
  [[nodiscard]] std::uint32_t min_node() const { return min_; }

  /// Root-to-leftmost descent — the textbook-BST head-access cost model.
  [[nodiscard]] std::uint32_t min_descend() const { return leftmost(root_); }

  /// Smallest key and its value, reached under the `kHead` cost model.
  /// Throws on empty.
  [[nodiscard]] std::pair<const Key&, std::uint32_t> front() const {
    const std::uint32_t n = head();
    return {nodes_[n].key, nodes_[n].value};
  }

  /// Remove and return the smallest entry: a head access under the `kHead`
  /// cost model, then an O(log n) erase. Throws on empty.
  std::pair<Key, std::uint32_t> pop_front() {
    const std::uint32_t n = head();
    std::pair<Key, std::uint32_t> out{nodes_[n].key, nodes_[n].value};
    erase(out.first);
    return out;
  }

  [[nodiscard]] const Key& key(std::uint32_t node) const { return nodes_[node].key; }
  [[nodiscard]] std::uint32_t value(std::uint32_t node) const {
    return nodes_[node].value;
  }

  /// In-order (ascending-key) walk; the visitor returns false to stop.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    walk(root_, visit);
  }

  /// In-order walk over keys >= `from` (lower_bound + forward iteration).
  /// The visitor returns false to stop.
  template <class Visitor>
  void for_each_from(const Key& from, Visitor&& visit) const {
    // Seed the explicit stack with the path to the first key >= from: at
    // each node either descend right (node too small — not on the path) or
    // record it and descend left.
    std::uint32_t stack[kMaxHeight];
    int top = 0;
    std::uint32_t n = root_;
    while (n != kNil) {
      if (nodes_[n].key < from) {
        n = nodes_[n].right;
      } else {
        stack[top++] = n;
        n = nodes_[n].left;
      }
    }
    resume_walk(stack, top, visit);
  }

  /// Structural audit: ordering, AVL balance, cached heights, size and the
  /// cached-min index. Throws std::logic_error on corruption. O(n).
  void validate() const {
    std::size_t count = 0;
    const Key* prev = nullptr;
    validate_rec(root_, count, prev);
    if (count != size_) {
      throw std::logic_error("FlatTree: node count " + std::to_string(count) +
                             " != size " + std::to_string(size_));
    }
    if (min_ != leftmost(root_)) {
      throw std::logic_error("FlatTree: cached min out of sync");
    }
    if (size_ + free_.size() != nodes_.size()) {
      throw std::logic_error("FlatTree: arena leak (live " + std::to_string(size_) +
                             " + free " + std::to_string(free_.size()) + " != " +
                             std::to_string(nodes_.size()) + ")");
    }
  }

 private:
  struct Node {
    Key key;
    std::uint32_t value;
    std::uint32_t left;
    std::uint32_t right;
    std::uint8_t height;  // AVL height of the subtree rooted here (leaf = 1)
  };

  // AVL height is < 1.45 * log2(n); 64 covers any 32-bit-indexed arena.
  static constexpr int kMaxHeight = 64;

  [[nodiscard]] std::uint32_t head() const {
    if (size_ == 0) throw std::logic_error("FlatTree: empty");
    if constexpr (kHead == HeadAccess::kCachedMin) {
      return min_node();
    } else {
      return min_descend();
    }
  }

  template <class Visitor>
  void walk(std::uint32_t from, Visitor& visit) const {
    std::uint32_t stack[kMaxHeight];
    int top = 0;
    std::uint32_t n = from;
    while (n != kNil) {
      stack[top++] = n;
      n = nodes_[n].left;
    }
    resume_walk(stack, top, visit);
  }

  template <class Visitor>
  void resume_walk(std::uint32_t* stack, int top, Visitor& visit) const {
    while (top > 0) {
      const std::uint32_t n = stack[--top];
      if (!visit(nodes_[n].key, nodes_[n].value)) return;
      std::uint32_t r = nodes_[n].right;
      while (r != kNil) {
        stack[top++] = r;
        r = nodes_[r].left;
      }
    }
  }

  [[nodiscard]] std::uint32_t leftmost(std::uint32_t n) const {
    if (n == kNil) return kNil;
    while (nodes_[n].left != kNil) n = nodes_[n].left;
    return n;
  }

  [[nodiscard]] std::uint32_t height_of(std::uint32_t n) const {
    return n == kNil ? 0u : nodes_[n].height;
  }

  void update_height(std::uint32_t n) {
    const std::uint32_t hl = height_of(nodes_[n].left);
    const std::uint32_t hr = height_of(nodes_[n].right);
    nodes_[n].height = static_cast<std::uint8_t>(1 + (hl > hr ? hl : hr));
  }

  [[nodiscard]] int balance_of(std::uint32_t n) const {
    return static_cast<int>(height_of(nodes_[n].left)) -
           static_cast<int>(height_of(nodes_[n].right));
  }

  std::uint32_t rotate_right(std::uint32_t n) {
    const std::uint32_t l = nodes_[n].left;
    nodes_[n].left = nodes_[l].right;
    nodes_[l].right = n;
    update_height(n);
    update_height(l);
    return l;
  }

  std::uint32_t rotate_left(std::uint32_t n) {
    const std::uint32_t r = nodes_[n].right;
    nodes_[n].right = nodes_[r].left;
    nodes_[r].left = n;
    update_height(n);
    update_height(r);
    return r;
  }

  std::uint32_t rebalance(std::uint32_t n) {
    update_height(n);
    const int b = balance_of(n);
    if (b > 1) {
      if (balance_of(nodes_[n].left) < 0) nodes_[n].left = rotate_left(nodes_[n].left);
      return rotate_right(n);
    }
    if (b < -1) {
      if (balance_of(nodes_[n].right) > 0) {
        nodes_[n].right = rotate_right(nodes_[n].right);
      }
      return rotate_left(n);
    }
    return n;
  }

  std::uint32_t insert_rec(std::uint32_t n, const Key& key, std::uint32_t value,
                           bool& inserted) {
    if (n == kNil) {
      inserted = true;
      last_alloc_ = alloc(key, value);
      return last_alloc_;
    }
    if (key < nodes_[n].key) {
      nodes_[n].left = insert_rec(nodes_[n].left, key, value, inserted);
    } else if (nodes_[n].key < key) {
      nodes_[n].right = insert_rec(nodes_[n].right, key, value, inserted);
    } else {
      return n;  // duplicate: untouched
    }
    return inserted ? rebalance(n) : n;
  }

  /// Detach (do not free) the leftmost node of the subtree; returns the new
  /// subtree root and the detached index through `detached`.
  std::uint32_t detach_min(std::uint32_t n, std::uint32_t& detached) {
    if (nodes_[n].left == kNil) {
      detached = n;
      return nodes_[n].right;
    }
    nodes_[n].left = detach_min(nodes_[n].left, detached);
    return rebalance(n);
  }

  std::uint32_t erase_rec(std::uint32_t n, const Key& key, bool& erased) {
    if (n == kNil) return kNil;
    if (key < nodes_[n].key) {
      nodes_[n].left = erase_rec(nodes_[n].left, key, erased);
    } else if (nodes_[n].key < key) {
      nodes_[n].right = erase_rec(nodes_[n].right, key, erased);
    } else {
      erased = true;
      const std::uint32_t l = nodes_[n].left;
      const std::uint32_t r = nodes_[n].right;
      if (l == kNil || r == kNil) {
        free_.push_back(n);
        return l == kNil ? r : l;
      }
      // Two children: pull up the in-order successor's payload and free its
      // old node. A non-min erase can therefore never relocate the tree's
      // global minimum (the successor is > the erased key > the minimum), so
      // the cached min_ index stays valid on this path.
      std::uint32_t succ = kNil;
      nodes_[n].right = detach_min(r, succ);
      nodes_[n].key = nodes_[succ].key;
      nodes_[n].value = nodes_[succ].value;
      free_.push_back(succ);
    }
    return rebalance(n);
  }

  std::uint32_t alloc(const Key& key, std::uint32_t value) {
    if (!free_.empty()) {
      const std::uint32_t n = free_.back();
      free_.pop_back();
      nodes_[n] = Node{key, value, kNil, kNil, 1};
      return n;
    }
    const auto n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{key, value, kNil, kNil, 1});
    return n;
  }

  /// Returns the subtree height; checks ordering against the enclosing
  /// (min, max) key window via `prev` (strict in-order ascent).
  std::uint32_t validate_rec(std::uint32_t n, std::size_t& count,
                             const Key*& prev) const {
    if (n == kNil) return 0;
    if (n >= nodes_.size()) throw std::logic_error("FlatTree: link out of range");
    const std::uint32_t hl = validate_rec(nodes_[n].left, count, prev);
    if (prev != nullptr && !(*prev < nodes_[n].key)) {
      throw std::logic_error("FlatTree: keys not strictly ascending");
    }
    prev = &nodes_[n].key;
    ++count;
    const std::uint32_t hr = validate_rec(nodes_[n].right, count, prev);
    const std::uint32_t h = 1 + (hl > hr ? hl : hr);
    if (h != nodes_[n].height) throw std::logic_error("FlatTree: stale height");
    const int b = static_cast<int>(hl) - static_cast<int>(hr);
    if (b < -1 || b > 1) throw std::logic_error("FlatTree: AVL balance violated");
    return h;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t root_ = kNil;
  std::uint32_t min_ = kNil;
  std::uint32_t last_alloc_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace woha::core
