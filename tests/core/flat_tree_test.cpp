// FlatTree is the arena AVL backing BstQueue's orderings; std::map is the
// executable specification. The fuzz mirrors every mutation into both and
// checks the full observable surface — ordering walks, resumable walks,
// both min accessors, duplicate/absent handling — plus validate() (ordering,
// balance, heights, cached min, arena leak) after every operation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/flat_tree.hpp"

namespace woha::core {
namespace {

// The queue's actual key shape: (ordering key, workflow id).
using Key = std::pair<std::int64_t, std::uint32_t>;
using Tree = FlatTree<Key>;
using Reference = std::map<Key, std::uint32_t>;

std::vector<std::pair<Key, std::uint32_t>> in_order(const Tree& tree) {
  std::vector<std::pair<Key, std::uint32_t>> out;
  tree.for_each([&](const Key& key, std::uint32_t value) {
    out.emplace_back(key, value);
    return true;
  });
  return out;
}

void expect_equal(const Tree& tree, const Reference& ref) {
  ASSERT_NO_THROW(tree.validate());
  ASSERT_EQ(tree.size(), ref.size());
  ASSERT_EQ(tree.empty(), ref.empty());
  const auto walked = in_order(tree);
  ASSERT_EQ(walked.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [key, value] : walked) {
    ASSERT_EQ(key, it->first);
    ASSERT_EQ(value, it->second);
    ++it;
  }
  if (ref.empty()) {
    EXPECT_EQ(tree.min_node(), Tree::kNil);
    EXPECT_EQ(tree.min_descend(), Tree::kNil);
  } else {
    const std::uint32_t cached = tree.min_node();
    const std::uint32_t descended = tree.min_descend();
    ASSERT_NE(cached, Tree::kNil);
    EXPECT_EQ(tree.key(cached), ref.begin()->first);
    EXPECT_EQ(tree.value(cached), ref.begin()->second);
    // BSTplain's descent and BST's cache must name the same node.
    EXPECT_EQ(descended, cached);
  }
}

TEST(FlatTree, EmptyTreeBasics) {
  Tree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.min_node(), Tree::kNil);
  EXPECT_EQ(tree.min_descend(), Tree::kNil);
  EXPECT_FALSE(tree.erase({1, 1}));
  ASSERT_NO_THROW(tree.validate());
  int visits = 0;
  tree.for_each([&](const Key&, std::uint32_t) {
    ++visits;
    return true;
  });
  tree.for_each_from({0, 0}, [&](const Key&, std::uint32_t) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(FlatTree, DuplicateInsertIsRejectedUntouched) {
  Tree tree;
  EXPECT_TRUE(tree.insert({5, 1}, 1));
  EXPECT_FALSE(tree.insert({5, 1}, 99));  // same key: value must not change
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.value(tree.min_node()), 1u);
  ASSERT_NO_THROW(tree.validate());
}

TEST(FlatTree, ForEachFromResumesAtLowerBound) {
  Tree tree;
  Reference ref;
  for (std::int64_t k = 0; k < 40; k += 2) {
    const Key key{k, static_cast<std::uint32_t>(k)};
    tree.insert(key, static_cast<std::uint32_t>(k));
    ref.emplace(key, static_cast<std::uint32_t>(k));
  }
  const auto walk_from = [&](const Key& from) {
    std::vector<Key> got;
    tree.for_each_from(from, [&](const Key& key, std::uint32_t) {
      got.push_back(key);
      return true;
    });
    std::vector<Key> want;
    for (auto it = ref.lower_bound(from); it != ref.end(); ++it) {
      want.push_back(it->first);
    }
    EXPECT_EQ(got, want) << "from (" << from.first << "," << from.second << ")";
  };
  walk_from({-10, 0});  // before everything: full walk
  walk_from({8, 8});    // present key: inclusive
  walk_from({9, 0});    // absent key: next greater
  walk_from({38, 39});  // past the last id at the key: strictly after
  walk_from({100, 0});  // past everything: empty walk
  // Early stop: the visitor's false return ends the walk immediately.
  int visits = 0;
  tree.for_each_from({10, 0}, [&](const Key&, std::uint32_t) {
    return ++visits < 3;
  });
  EXPECT_EQ(visits, 3);
}

// Promoted from an adversarial fuzz case: a two-child erase frees the
// *successor's* arena slot, so the free list hands out an index whose old
// key is still live in the tree. Duplicate-insert rejection must key off the
// tree's ordering, never off recycled node identity.
TEST(FlatTree, DuplicateInsertAfterFreeListRecycling) {
  Tree tree;
  Reference ref;
  const auto put = [&](std::int64_t k, std::uint32_t id, std::uint32_t v) {
    ASSERT_EQ(tree.insert({k, id}, v), ref.emplace(Key{k, id}, v).second);
  };
  for (std::int64_t k = 0; k < 16; ++k) {
    put(k, 0, static_cast<std::uint32_t>(k));
  }
  expect_equal(tree, ref);

  // Interior key with two children: the successor's slot hits the free list.
  ASSERT_TRUE(tree.erase({7, 0}));
  ref.erase({7, 0});
  expect_equal(tree, ref);

  // The next insert recycles that slot for a brand-new key...
  put(100, 0, 100);
  expect_equal(tree, ref);

  // ...and duplicate inserts of every still-live key must be rejected with
  // values untouched, including the key whose node changed slots.
  for (const auto& entry : ref) {
    EXPECT_FALSE(tree.insert(entry.first, 9999));
  }
  expect_equal(tree, ref);

  // Erase/reinsert churn across the same universe: reinserted keys must be
  // accepted exactly once no matter how the free list reordered slots.
  for (std::int64_t k = 0; k < 16; k += 2) {
    EXPECT_EQ(tree.erase({k, 0}), ref.erase(Key{k, 0}) > 0);
  }
  expect_equal(tree, ref);
  for (std::int64_t k = 0; k < 16; ++k) {
    put(k, 0, static_cast<std::uint32_t>(k + 500));
  }
  expect_equal(tree, ref);
}

// Promoted from an adversarial fuzz case: resuming a walk exactly at a key
// that was just erased. for_each_from must land on the next greater *live*
// key (map::lower_bound semantics), not chase stale node identity — even
// after the freed slots are recycled into different keys.
TEST(FlatTree, ForEachFromResumesAtErasedKey) {
  Tree tree;
  Reference ref;
  for (std::int64_t k = 0; k < 32; k += 2) {
    tree.insert({k, 1}, static_cast<std::uint32_t>(k));
    ref.emplace(Key{k, 1}, static_cast<std::uint32_t>(k));
  }
  const auto expect_walk_from = [&](const Key& from) {
    std::vector<Key> got;
    tree.for_each_from(from, [&](const Key& key, std::uint32_t) {
      got.push_back(key);
      return true;
    });
    std::vector<Key> want;
    for (auto it = ref.lower_bound(from); it != ref.end(); ++it) {
      want.push_back(it->first);
    }
    EXPECT_EQ(got, want) << "from (" << from.first << "," << from.second << ")";
  };

  // Interior, minimum, and maximum victims: every erase shape.
  for (const Key& victim : {Key{8, 1}, Key{0, 1}, Key{30, 1}}) {
    ASSERT_TRUE(tree.erase(victim));
    ref.erase(victim);
    expect_walk_from(victim);
    expect_equal(tree, ref);
  }

  // Recycle the freed slots into nearby-but-different keys, then resume at
  // each erased key again: still pure lower_bound over the live keys.
  for (const std::int64_t k : {9, 1, 31}) {
    tree.insert({k, 0}, static_cast<std::uint32_t>(k));
    ref.emplace(Key{k, 0}, static_cast<std::uint32_t>(k));
  }
  for (const Key& victim : {Key{8, 1}, Key{0, 1}, Key{30, 1}}) {
    expect_walk_from(victim);
  }
  expect_equal(tree, ref);
}

TEST(FlatTree, EraseMinMaintainsCachedMin) {
  Tree tree;
  Reference ref;
  for (std::int64_t k = 0; k < 64; ++k) {
    const Key key{k, 0};
    tree.insert(key, static_cast<std::uint32_t>(k));
    ref.emplace(key, static_cast<std::uint32_t>(k));
  }
  // Drain strictly from the head: every erase relocates the minimum.
  while (!ref.empty()) {
    const Key head = ref.begin()->first;
    EXPECT_TRUE(tree.erase(head));
    ref.erase(ref.begin());
    expect_equal(tree, ref);
  }
}

TEST(FlatTree, FuzzAgainstStdMap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Tree tree;
    Reference ref;
    for (int op = 0; op < 600; ++op) {
      // A small key universe forces frequent duplicate inserts, absent
      // erases, and erase-reinsert free-list recycling.
      const Key key{static_cast<std::int64_t>(rng.uniform_int(0, 60)),
                    static_cast<std::uint32_t>(rng.uniform_int(0, 3))};
      const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
      if (rng.chance(0.55)) {
        const bool inserted = tree.insert(key, value);
        const bool expected = ref.emplace(key, value).second;
        ASSERT_EQ(inserted, expected) << "seed " << seed << " op " << op;
      } else {
        const bool erased = tree.erase(key);
        const bool expected = ref.erase(key) > 0;
        ASSERT_EQ(erased, expected) << "seed " << seed << " op " << op;
      }
      if ((op & 15) == 0) {
        expect_equal(tree, ref);
        // Resumable walk from a random point matches map::lower_bound.
        const Key from{static_cast<std::int64_t>(rng.uniform_int(0, 60)), 0};
        std::vector<Key> got;
        tree.for_each_from(from, [&](const Key& k, std::uint32_t) {
          got.push_back(k);
          return true;
        });
        std::vector<Key> want;
        for (auto it = ref.lower_bound(from); it != ref.end(); ++it) {
          want.push_back(it->first);
        }
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
      }
    }
    expect_equal(tree, ref);
  }
}

}  // namespace
}  // namespace woha::core
