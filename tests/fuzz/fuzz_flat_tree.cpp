// FlatTree vs std::map oracle.
//
// The input decodes to an op sequence over a FlatTree<pair<int64, uint32>>
// (the queue's composite-key shape) and a std::map twin. Keys come from a
// deliberately tiny domain so duplicate inserts, erase-reinsert free-list
// recycling, and min_/root repositioning all happen constantly. After every
// op the harness compares sizes and cached/descended minima; iteration ops
// compare full in-order walks and for_each_from resumes against the map;
// validate ops run the tree's own structural audit.
//
// Mutant (WOHA_FUZZ_MUTANT=1): a successful erase is applied to the oracle
// only — the very next size comparison must catch the divergence.
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_tree.hpp"
#include "fuzz_util.hpp"

namespace {

using Key = std::pair<std::int64_t, std::uint32_t>;

Key decode_key(woha::fuzz::ByteReader& in) {
  // 16 majors x 4 minors: small enough to collide, big enough to rotate.
  return {static_cast<std::int64_t>(in.u8() % 16), in.u8() % 4};
}

std::string describe(const Key& k) {
  std::string out(1, '(');
  out += std::to_string(k.first);
  out += ',';
  out += std::to_string(k.second);
  out += ')';
  return out;
}

void check_minima(const woha::core::FlatTree<Key>& tree,
                  const std::map<Key, std::uint32_t>& oracle) {
  if (oracle.empty()) {
    WOHA_FUZZ_CHECK(tree.min_node() == woha::core::FlatTree<Key>::kNil,
                    "min_node not nil on empty tree");
    return;
  }
  const std::uint32_t cached = tree.min_node();
  const std::uint32_t descended = tree.min_descend();
  WOHA_FUZZ_CHECK(cached != woha::core::FlatTree<Key>::kNil,
                  "min_node nil on non-empty tree");
  WOHA_FUZZ_CHECK(tree.key(cached) == oracle.begin()->first,
                  "cached min key diverged at " + describe(tree.key(cached)));
  WOHA_FUZZ_CHECK(tree.key(descended) == oracle.begin()->first,
                  "descended min key diverged");
  WOHA_FUZZ_CHECK(tree.value(cached) == oracle.begin()->second,
                  "min value diverged");
}

void check_full_walk(const woha::core::FlatTree<Key>& tree,
                     const std::map<Key, std::uint32_t>& oracle) {
  std::vector<std::pair<Key, std::uint32_t>> walked;
  tree.for_each([&](const Key& k, std::uint32_t v) {
    walked.emplace_back(k, v);
    return true;
  });
  WOHA_FUZZ_CHECK(walked.size() == oracle.size(), "walk length diverged");
  auto it = oracle.begin();
  for (const auto& [k, v] : walked) {
    WOHA_FUZZ_CHECK(k == it->first && v == it->second,
                    "walk entry diverged at " + describe(k));
    ++it;
  }
}

void check_resume_walk(const woha::core::FlatTree<Key>& tree,
                       const std::map<Key, std::uint32_t>& oracle,
                       const Key& from) {
  std::vector<Key> walked;
  tree.for_each_from(from, [&](const Key& k, std::uint32_t) {
    walked.push_back(k);
    return true;
  });
  std::vector<Key> expected;
  for (auto it = oracle.lower_bound(from); it != oracle.end(); ++it) {
    expected.push_back(it->first);
  }
  WOHA_FUZZ_CHECK(walked == expected,
                  "for_each_from diverged resuming at " + describe(from));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  woha::fuzz::ByteReader in(data, size);
  woha::core::FlatTree<Key> tree;
  std::map<Key, std::uint32_t> oracle;

  while (!in.done()) {
    switch (in.u8() % 8) {
      case 0:
      case 1:
      case 2: {  // insert (weighted: growth drives rotations)
        const Key k = decode_key(in);
        const std::uint32_t v = in.u8();
        const bool tree_inserted = tree.insert(k, v);
        const bool oracle_inserted = oracle.emplace(k, v).second;
        WOHA_FUZZ_CHECK(tree_inserted == oracle_inserted,
                        "insert outcome diverged at " + describe(k));
        break;
      }
      case 3:
      case 4: {  // erase
        const Key k = decode_key(in);
        const bool oracle_erased = oracle.erase(k) != 0;
        // Mutant: drop the tree-side erase so the oracle walks away from
        // the tree — the size check below must notice immediately.
        const bool tree_erased = (woha::fuzz::mutant() && oracle_erased)
                                     ? oracle_erased
                                     : tree.erase(k);
        WOHA_FUZZ_CHECK(tree_erased == oracle_erased,
                        "erase outcome diverged at " + describe(k));
        break;
      }
      case 5:
        check_full_walk(tree, oracle);
        break;
      case 6:
        check_resume_walk(tree, oracle, decode_key(in));
        break;
      case 7:
        tree.validate();
        break;
    }
    WOHA_FUZZ_CHECK(tree.size() == oracle.size(), "size diverged");
    check_minima(tree, oracle);
  }

  check_full_walk(tree, oracle);
  tree.validate();
  return 0;
}
