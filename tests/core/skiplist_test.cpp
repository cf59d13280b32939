#include "core/skiplist.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace woha::core {
namespace {

TEST(SkipList, InsertFindErase) {
  SkipList<int, std::string> list;
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.insert(5, "five"));
  EXPECT_TRUE(list.insert(1, "one"));
  EXPECT_TRUE(list.insert(9, "nine"));
  EXPECT_EQ(list.size(), 3u);

  ASSERT_NE(list.find(5), nullptr);
  EXPECT_EQ(*list.find(5), "five");
  EXPECT_EQ(list.find(7), nullptr);
  EXPECT_TRUE(list.contains(1));

  EXPECT_TRUE(list.erase(5));
  EXPECT_FALSE(list.erase(5));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(list.contains(5));
}

TEST(SkipList, RejectsDuplicates) {
  SkipList<int, int> list;
  EXPECT_TRUE(list.insert(1, 10));
  EXPECT_FALSE(list.insert(1, 20));
  EXPECT_EQ(*list.find(1), 10);
  EXPECT_EQ(list.size(), 1u);
}

TEST(SkipList, FrontAndPopFrontAreOrdered) {
  SkipList<int, int> list;
  for (int k : {42, 7, 19, 3, 25}) list.insert(k, k * 10);
  EXPECT_EQ(list.front().first, 3);
  EXPECT_EQ(list.front().second, 30);

  std::vector<int> popped;
  while (!list.empty()) popped.push_back(list.pop_front().first);
  EXPECT_EQ(popped, (std::vector<int>{3, 7, 19, 25, 42}));
}

TEST(SkipList, EmptyAccessThrows) {
  SkipList<int, int> list;
  EXPECT_THROW((void)list.front(), std::logic_error);
  EXPECT_THROW((void)list.pop_front(), std::logic_error);
}

TEST(SkipList, ForEachVisitsAscendingAndStopsEarly) {
  SkipList<int, int> list;
  for (int k = 10; k >= 1; --k) list.insert(k, k);
  std::vector<int> seen;
  list.for_each([&](const int& k, const int&) {
    seen.push_back(k);
    return k < 4;  // stop after visiting 4
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SkipList, PairKeysOrderLexicographically) {
  // The DSL uses (priority, id) composite keys.
  SkipList<std::pair<std::int64_t, std::uint32_t>, int> list;
  list.insert({-5, 2}, 1);
  list.insert({-5, 1}, 2);
  list.insert({-9, 7}, 3);
  EXPECT_EQ(list.pop_front().second, 3);  // (-9,7)
  EXPECT_EQ(list.pop_front().second, 2);  // (-5,1)
  EXPECT_EQ(list.pop_front().second, 1);  // (-5,2)
}

class SkipListProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkipListProperty, MatchesStdMapUnderRandomOps) {
  Rng rng(GetParam());
  SkipList<int, int> list;
  std::map<int, int> reference;

  for (int op = 0; op < 4000; ++op) {
    const int key = static_cast<int>(rng.uniform_int(0, 300));
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1: {  // insert (biased: lists should grow)
        const bool inserted = list.insert(key, op);
        EXPECT_EQ(inserted, reference.emplace(key, op).second);
        break;
      }
      case 2: {  // erase by key
        EXPECT_EQ(list.erase(key), reference.erase(key) > 0);
        break;
      }
      default: {  // pop_front
        if (!reference.empty()) {
          const auto expected = *reference.begin();
          reference.erase(reference.begin());
          const auto got = list.pop_front();
          EXPECT_EQ(got.first, expected.first);
          EXPECT_EQ(got.second, expected.second);
        } else {
          EXPECT_TRUE(list.empty());
        }
        break;
      }
    }
    ASSERT_EQ(list.size(), reference.size());
    if (op % 64 == 0) {
      ASSERT_NO_THROW(list.validate()) << "op " << op;
    }
  }
  ASSERT_NO_THROW(list.validate());

  // Final sweep: identical contents in identical order.
  auto it = reference.begin();
  list.for_each([&](const int& k, const int& v) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, reference.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipListProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// A comparator the test can reverse after the fact: the list's existing
// order then reads as descending, which validate() must reject.
struct FlippableLess {
  static inline bool reversed = false;
  bool operator()(int a, int b) const { return reversed ? b < a : a < b; }
};

TEST(SkipList, ValidateRejectsOutOfOrderKeys) {
  SkipList<int, int, FlippableLess> list;
  EXPECT_NO_THROW(list.validate());
  for (int k : {3, 1, 2}) list.insert(k, k);
  EXPECT_NO_THROW(list.validate());
  FlippableLess::reversed = true;
  EXPECT_THROW(list.validate(), std::logic_error);
  FlippableLess::reversed = false;
}

TEST(SkipList, ScalesToManyElements) {
  SkipList<int, int> list;
  const int n = 50'000;
  for (int k = 0; k < n; ++k) list.insert((k * 7919) % n, k);  // scrambled order
  EXPECT_EQ(list.size(), static_cast<std::size_t>(n));
  int prev = -1;
  int count = 0;
  list.for_each([&](const int& k, const int&) {
    EXPECT_GT(k, prev);
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, n);
}

}  // namespace
}  // namespace woha::core
