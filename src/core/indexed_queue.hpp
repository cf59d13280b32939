// The indexed scheduler queue (paper Section IV-B, Algorithm 2), templated
// on the ordering structure so the Fig. 13(a) ablation compares data
// structures while the algorithm exists once.
//
// Two orderings of the same type index the per-workflow records:
//   * ct ordering   keyed by (next-change-time, id)  — ascending,
//   * priority      keyed by (-lag, id)              — so the front is the
//                                                      most lagging workflow.
// `Ordering` is used directly, with no adapter: it maps unique QueueKeys to
// 32-bit arena slots and provides insert / erase / empty / size / front /
// pop_front / for_each / for_each_from / validate. The instantiations:
//   * DslOrdering      — SkipList, the paper's Double Skip List: head
//                        deletions (the fired ct head and the chosen
//                        priority head) are O(1), repositioning O(log n),
//                        for a total AssignTask cost of
//                        O((n_w / (n_f * l) + 1) * log n_w);
//   * BstOrdering      — FlatTree with an O(1) cached leftmost node;
//   * BstPlainOrdering — FlatTree paying a root-to-leftmost descent on every
//                        head access (the paper's textbook balanced BST).
//
// Hot-path layout: per-workflow state lives in a flat SoA arena
// (queue_arena.hpp) and both orderings carry slot indices, not pointers
// into individually allocated records. On top of that sit two incremental
// devices, both decision-invisible:
//   * the ct refresh is version-stamped — at an instant the orderings are
//     already clean for, Phase 1 is skipped without even peeking the head;
//   * probe rejections are memoized per slot-type domain (epoch stamps plus
//     a resume key), so a consult continues the priority walk past the
//     already-rejected prefix in O(log n) instead of re-probing it. See
//     SchedulerQueue::assign_batch for the caller contract.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "core/flat_tree.hpp"
#include "core/queue_arena.hpp"
#include "core/scheduler_queue.hpp"
#include "core/skiplist.hpp"

namespace woha::core {

/// (next-change-time or -lag, workflow id): the id makes every key unique,
/// so ties break by id and all queue kinds rank workflows identically.
using QueueKey = std::pair<std::int64_t, std::uint32_t>;

using DslOrdering = SkipList<QueueKey, std::uint32_t>;
using BstOrdering = FlatTree<QueueKey, HeadAccess::kCachedMin>;
using BstPlainOrdering = FlatTree<QueueKey, HeadAccess::kDescend>;

template <class Ordering>
class IndexedQueue final : public SchedulerQueue {
 public:
  [[nodiscard]] std::string name() const override;
  void insert(std::uint32_t id, ProgressTracker tracker) override;
  void remove(std::uint32_t id) override;
  std::uint32_t assign(SimTime now,
                       const std::function<bool(std::uint32_t)>& can_use) override;
  std::uint32_t assign_batch(
      SimTime now, std::size_t domain, std::uint32_t k,
      const std::function<bool(std::uint32_t)>& can_use,
      const std::function<void(std::uint32_t)>& on_assign) override;
  void note_can_use_changed(std::uint32_t id) override;
  void invalidate_probe_memo() override;
  void on_progress_lost(std::uint32_t id, std::uint64_t count) override;
  [[nodiscard]] std::size_t size() const override { return arena_.size(); }
  void top(std::size_t k, std::vector<QueueEntry>& out) const override;
  void check_structure() const override;

 private:
  /// Auditor failure-path tests corrupt cached keys through this peer.
  friend struct QueueTestPeer;

  /// "Walk everything": the resume key that precedes every real key.
  static constexpr QueueKey kWalkFromHead{std::numeric_limits<std::int64_t>::min(),
                                          0};
  /// "Everything rejected": the resume key that follows every real key.
  static constexpr QueueKey kWalkNothing{std::numeric_limits<std::int64_t>::max(),
                                         0xffffffffu};

  /// Phase 1 (Algorithm 2, lines 4-19), memoized per instant: pop fired ct
  /// heads and reposition them. No-op when the orderings are already clean
  /// for `now` and nothing was inserted since.
  void refresh_fired(SimTime now);
  void refresh(std::uint32_t slot, SimTime now);
  /// Reposition the winner (already erased from the priority ordering)
  /// after its rho bump; returns its id.
  std::uint32_t commit_winner(std::uint32_t slot);
  /// Probe-memo invariant maintenance: a node not memoized-rejected in a
  /// domain must never sit before that domain's resume key; call after any
  /// reposition or un-stamping with the node's current priority key.
  void note_moved(std::uint32_t slot, const QueueKey& key);
  /// Key `slot` into the priority ordering at its tracker's current lag
  /// (the caller has erased any previous entry), then note_moved().
  void insert_priority(std::uint32_t slot, const char* what);

  WfStateArena arena_;
  Ordering ct_;
  Ordering pri_;
  /// Instant the ct ordering was last refreshed to; valid while !ct_dirty_.
  SimTime ct_clean_now_ = 0;
  bool ct_dirty_ = true;
  /// Per-domain rejection-memo epoch; a stamp equal to it is live.
  std::uint64_t epoch_[WfStateArena::kDomains] = {1, 1};
  /// First priority key a consult in this domain still has to probe.
  QueueKey resume_[WfStateArena::kDomains] = {kWalkFromHead, kWalkFromHead};
};

extern template class IndexedQueue<DslOrdering>;
extern template class IndexedQueue<BstOrdering>;
extern template class IndexedQueue<BstPlainOrdering>;

}  // namespace woha::core
