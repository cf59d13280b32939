// The master-side workflow queue behind WOHA's AssignTask (Algorithm 2).
//
// The scheduler keeps two orderings over queued workflows:
//   * the ct list   — by the absolute time of the next progress-requirement
//                     change (ascending), and
//   * the priority list — by progress lag p = F(ttd) - rho (descending).
//
// AssignTask (a) refreshes the priorities of the workflows at the head of
// the ct list whose change events have fired, then (b) serves the
// highest-priority workflow that can actually use the slot, bumps its rho,
// and repositions it. Three implementations back the paper's Fig. 13(a)
// ablation: the Double Skip List (the contribution), a balanced-BST
// composition, and the naive recompute-and-rescan loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/progress_tracker.hpp"

namespace woha::core {

class SchedulerQueue {
 public:
  virtual ~SchedulerQueue() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Add a workflow with its freshly-built tracker. `id` must be new.
  virtual void insert(std::uint32_t id, ProgressTracker tracker) = 0;

  /// Remove a finished workflow. No-op when absent.
  virtual void remove(std::uint32_t id) = 0;

  /// Algorithm 2: update stale orderings up to `now`, then offer the slot to
  /// workflows in descending-priority order; `can_use(id)` says whether the
  /// workflow has an assignable task. On acceptance the workflow's rho is
  /// incremented and its position updated; returns its id. Returns
  /// UINT32_MAX when no queued workflow can use the slot.
  virtual std::uint32_t assign(SimTime now,
                               const std::function<bool(std::uint32_t)>& can_use) = 0;

  /// Batched Algorithm 2: decision-equivalent to up to `k` successive
  /// assign(now, can_use) calls, stopping after the first that would return
  /// kNone. `on_assign(id)` runs after each acceptance (rho already bumped,
  /// orderings repositioned) and must apply the slot-side effects — start
  /// the task — before the next probe, so can_use reflects them. Returns
  /// the number of assignments made; a return < k means the final probe
  /// found no usable workflow, exactly as for a kNone from assign().
  ///
  /// `domain` names the can_use universe (in practice the slot type, 0 or
  /// 1 — must be < kProbeDomains). Implementations may memoize *rejections*
  /// per domain across calls: once can_use(id) probes false, the workflow
  /// is skipped without re-probing until something could have flipped the
  /// answer. The caller owns that contract: can_use(id) must depend only on
  /// (id, domain), and every false -> true flip must be announced through
  /// note_can_use_changed(id) / on_progress_lost(id, ...) — or the whole
  /// memo dropped via invalidate_probe_memo() (e.g. when an offer carries a
  /// per-tracker eligibility filter). The default implementation just loops
  /// assign() and memoizes nothing.
  virtual std::uint32_t assign_batch(SimTime now, std::size_t domain,
                                     std::uint32_t k,
                                     const std::function<bool(std::uint32_t)>& can_use,
                                     const std::function<void(std::uint32_t)>& on_assign);

  /// An external event may have flipped can_use(id) from false to true
  /// (a job of the workflow activated, its map phase completed, lost tasks
  /// returned to the pending pool): forget any memoized rejection of `id`.
  /// No-op when the workflow is not queued, and for queues that memoize
  /// nothing.
  virtual void note_can_use_changed(std::uint32_t id) { (void)id; }

  /// Drop every memoized rejection (all domains): the next assign_batch
  /// re-probes from the priority head. Required before consults whose
  /// can_use is outside the per-(id, domain) contract — e.g. offers with a
  /// per-tracker eligibility filter — and again on the first unfiltered
  /// consult after them.
  virtual void invalidate_probe_memo() {}

  /// Number of probe-memo domains implementations must support (one per
  /// SlotType).
  static constexpr std::size_t kProbeDomains = 2;

  /// Progress regression: `count` tasks previously handed to `id` were lost
  /// to a tracker crash and will be re-executed. Undoes that many
  /// count_scheduled() bumps (rho decreases, lag and hence priority grow)
  /// and repositions the workflow so the priority ordering stays coherent.
  /// No-op when the workflow is not queued (already finished/failed).
  virtual void on_progress_lost(std::uint32_t id, std::uint64_t count) = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// One queued workflow as the priority ordering currently ranks it — the
  /// explainability snapshot behind obs::SchedulerDecision.
  struct QueueEntry {
    std::uint32_t id = 0;
    std::int64_t lag = 0;           ///< priority p = F(ttd) - rho (descending)
    std::uint64_t requirement = 0;  ///< F at the tracker's last refresh
    std::uint64_t rho = 0;          ///< tasks handed to slots so far
  };

  /// Append up to `k` workflows in descending-priority order. Strictly
  /// read-only: implementations must not refresh orderings or advance
  /// trackers — tracing one decision can never influence the next.
  virtual void top(std::size_t k, std::vector<QueueEntry>& out) const = 0;

  /// Validate internal structure (audit support): cached ordering keys in
  /// sync with the trackers, both index orderings sorted, and the ct and
  /// priority views covering the same workflow set. Throws std::logic_error
  /// with a descriptive message on corruption. Read-only; the default (for
  /// queues without cached structure) checks nothing.
  virtual void check_structure() const {}

  static constexpr std::uint32_t kNone = 0xffffffffu;
};

/// kDsl, kBst and kBstPlain are IndexedQueue instantiations (one Algorithm 2
/// over different orderings). kBst uses FlatTree, an arena AVL tree that
/// caches its leftmost node — a stronger baseline than the paper's.
/// kBstPlain models the textbook balanced BST the paper compared against:
/// every head access pays a root-to-leftmost descent. kNaive recomputes
/// and rescans on every call.
enum class QueueKind : std::uint8_t { kDsl, kBst, kBstPlain, kNaive };

[[nodiscard]] const char* to_string(QueueKind kind);
[[nodiscard]] std::unique_ptr<SchedulerQueue> make_queue(QueueKind kind);

}  // namespace woha::core
