// Flat SoA arena for queued-workflow state, owned by IndexedQueue
// (indexed_queue.hpp) whatever its ordering structure.
//
// The previous layout — unordered_map<id, unique_ptr<WfState>> with the
// orderings holding WfState* — made every AssignTask probe a pointer chase
// into an individually heap-allocated record. Here each queued workflow
// occupies one 32-bit slot in parallel arrays: the hot ordering keys
// (ct_key, pri_key) and the probe stamps live in their own contiguous
// columns, the (colder) ProgressTracker in another, and the orderings store
// slot indices instead of pointers. Slots are recycled through a free list,
// so the id -> slot map is consulted only on the cold paths (insert,
// remove, progress loss, availability notes) — assign() carries slot
// indices end to end.
//
// Ids may be reused after removal (a workflow that finishes can, in tests
// and fuzzing, be re-queued under the same id), so the id -> slot map is a
// real hash map rather than a monotonic-id DenseIdTable.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/progress_tracker.hpp"

namespace woha::core {

class WfStateArena {
 public:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Probe-stamp domains: one per SlotType (can_use answers differ between
  /// map and reduce offers, so rejections memoize per type).
  static constexpr std::size_t kDomains = 2;

  /// Slot of `id`; kNilSlot when the workflow is not queued.
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? kNilSlot : it->second;
  }

  /// Claim a slot for a new workflow. Throws on duplicate id. Fresh slots
  /// start with cleared probe stamps; ordering keys are the caller's to set.
  std::uint32_t allocate(std::uint32_t id, ProgressTracker tracker) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      trackers_[slot] = std::move(tracker);
      ids_[slot] = id;
      for (auto& stamp : probe_stamp_) stamp[slot] = 0;
    } else {
      slot = static_cast<std::uint32_t>(trackers_.size());
      trackers_.push_back(std::move(tracker));
      ids_.push_back(id);
      ct_keys_.push_back(0);
      pri_keys_.push_back(0);
      for (auto& stamp : probe_stamp_) stamp.push_back(0);
    }
    if (!index_.emplace(id, slot).second) {
      free_.push_back(slot);
      throw std::invalid_argument("WfStateArena: duplicate id");
    }
    return slot;
  }

  /// Return a slot to the free list. The columns keep their (now stale)
  /// contents until the slot is reallocated.
  void release(std::uint32_t slot) {
    index_.erase(ids_[slot]);
    free_.push_back(slot);
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  // SoA columns, indexed by slot.
  [[nodiscard]] ProgressTracker& tracker(std::uint32_t slot) {
    return trackers_[slot];
  }
  [[nodiscard]] const ProgressTracker& tracker(std::uint32_t slot) const {
    return trackers_[slot];
  }
  [[nodiscard]] std::uint32_t id(std::uint32_t slot) const { return ids_[slot]; }
  [[nodiscard]] SimTime& ct_key(std::uint32_t slot) { return ct_keys_[slot]; }
  [[nodiscard]] SimTime ct_key(std::uint32_t slot) const { return ct_keys_[slot]; }
  [[nodiscard]] std::int64_t& pri_key(std::uint32_t slot) { return pri_keys_[slot]; }
  [[nodiscard]] std::int64_t pri_key(std::uint32_t slot) const {
    return pri_keys_[slot];
  }
  /// Rejection-memo stamp: `stamp(d, slot) == epoch` means "can_use was
  /// probed false under epoch and no event since could have flipped it".
  [[nodiscard]] std::uint64_t& stamp(std::size_t domain, std::uint32_t slot) {
    return probe_stamp_[domain][slot];
  }
  [[nodiscard]] std::uint64_t stamp(std::size_t domain, std::uint32_t slot) const {
    return probe_stamp_[domain][slot];
  }

  /// Arena invariants (audit support): the id map is a bijection onto live
  /// slots, free-list entries are in range, distinct, and not live. Throws
  /// std::logic_error on corruption; order-independent, so the check itself
  /// is deterministic despite iterating hash containers.
  void check(const char* who) const {
    const std::size_t cap = trackers_.size();
    if (ids_.size() != cap || ct_keys_.size() != cap || pri_keys_.size() != cap ||
        probe_stamp_[0].size() != cap || probe_stamp_[1].size() != cap) {
      throw std::logic_error(std::string(who) + ": arena column sizes diverged");
    }
    if (index_.size() + free_.size() != cap) {
      throw std::logic_error(std::string(who) + ": arena slot count mismatch");
    }
    std::vector<char> live(cap, 0);
    for (const auto& [id, slot] : index_) {
      if (slot >= cap || live[slot] || ids_[slot] != id) {
        throw std::logic_error(std::string(who) +
                               ": arena id map does not index live slots");
      }
      live[slot] = 1;
    }
    for (const std::uint32_t slot : free_) {
      if (slot >= cap || live[slot]) {
        throw std::logic_error(std::string(who) +
                               ": arena free list overlaps live slots");
      }
      live[slot] = 1;  // also catches duplicate free entries
    }
  }

 private:
  std::vector<ProgressTracker> trackers_;
  std::vector<std::uint32_t> ids_;
  std::vector<SimTime> ct_keys_;
  std::vector<std::int64_t> pri_keys_;
  std::vector<std::uint64_t> probe_stamp_[kDomains];
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint32_t, std::uint32_t> index_;
};

}  // namespace woha::core
