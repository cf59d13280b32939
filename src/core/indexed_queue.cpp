#include "core/indexed_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace woha::core {

namespace {

// Ordering::insert returns false on a duplicate key *without inserting*, so
// an unchecked call would silently drop the workflow from one of the
// orderings — it would simply never be scheduled again. Every internal
// reposition goes through this guard: a failure means the cached
// ct_key/pri_key went out of sync with the ordering, which is a corruption
// bug, never a recoverable condition.
template <class Ordering>
void checked_insert(Ordering& ordering, const QueueKey& key, std::uint32_t slot,
                    const char* what) {
  if (!ordering.insert(key, slot)) throw std::logic_error(what);
}

// check_structure's per-entry audit, shared by both orderings and all
// instantiations: node key == cached key == the tracker's current key, and
// the entry resolves into the arena. Returns the entry's id. Kept out of
// the template so the audit's string building is compiled once, not per
// ordering.
std::uint32_t check_entry(const std::string& who, const WfStateArena& arena,
                          const char* list, const QueueKey& key,
                          std::uint32_t slot, std::int64_t cached,
                          std::int64_t fresh) {
  const std::uint32_t id = arena.id(slot);
  if (key.first != cached || key.second != id) {
    throw std::logic_error(who + list + " node key disagrees with cached " + list +
                           "_key for id " + std::to_string(id));
  }
  if (cached != fresh) {
    throw std::logic_error(who + "cached " + list + "_key stale for id " +
                           std::to_string(id) + " (cached=" +
                           std::to_string(cached) + " tracker=" +
                           std::to_string(fresh) + ")");
  }
  if (arena.slot_of(id) != slot) {
    throw std::logic_error(who + list + " entry not backed by the arena for id " +
                           std::to_string(id));
  }
  return id;
}

}  // namespace

template <class Ordering>
std::string IndexedQueue<Ordering>::name() const {
  if constexpr (std::is_same_v<Ordering, DslOrdering>) {
    return "DSL";
  } else if constexpr (std::is_same_v<Ordering, BstOrdering>) {
    return "BST";
  } else {
    return "BSTplain";
  }
}

template <class Ordering>
void IndexedQueue<Ordering>::note_moved(std::uint32_t slot, const QueueKey& key) {
  for (std::size_t d = 0; d < WfStateArena::kDomains; ++d) {
    if (arena_.stamp(d, slot) != epoch_[d] && key < resume_[d]) {
      resume_[d] = key;
    }
  }
}

template <class Ordering>
void IndexedQueue<Ordering>::insert_priority(std::uint32_t slot, const char* what) {
  arena_.pri_key(slot) = -arena_.tracker(slot).lag();
  const QueueKey key{arena_.pri_key(slot), arena_.id(slot)};
  checked_insert(pri_, key, slot, what);
  // Every re-key can raise priority (a refresh steps the requirement up, a
  // progress loss returns tasks), so an unstamped workflow may now precede
  // a resume key. A winner's key only grows, but keeping the maintenance
  // here covers a custom F that steps at assignment too.
  note_moved(slot, key);
}

template <class Ordering>
void IndexedQueue<Ordering>::insert(std::uint32_t id, ProgressTracker tracker) {
  if (arena_.slot_of(id) != WfStateArena::kNilSlot) {
    throw std::invalid_argument("IndexedQueue: duplicate id");
  }
  const std::uint32_t slot = arena_.allocate(id, std::move(tracker));
  arena_.ct_key(slot) = arena_.tracker(slot).next_change_time();
  checked_insert(ct_, {arena_.ct_key(slot), id}, slot,
                 "IndexedQueue: duplicate ct key on insert");
  insert_priority(slot, "IndexedQueue: duplicate pri key on insert");
  // A fresh tracker's first requirement step may already have fired, so the
  // memoized "clean at ct_clean_now_" claim no longer holds.
  ct_dirty_ = true;
}

template <class Ordering>
void IndexedQueue<Ordering>::remove(std::uint32_t id) {
  const std::uint32_t slot = arena_.slot_of(id);
  if (slot == WfStateArena::kNilSlot) return;
  ct_.erase({arena_.ct_key(slot), id});
  pri_.erase({arena_.pri_key(slot), id});
  // Resume keys may now point at the erased key; for_each_from treats them
  // as lower bounds, so no fixup is needed. Stamps die with the slot
  // (allocate() clears them on reuse).
  arena_.release(slot);
}

template <class Ordering>
void IndexedQueue<Ordering>::refresh(std::uint32_t slot, SimTime now) {
  ProgressTracker& t = arena_.tracker(slot);
  const std::uint32_t id = arena_.id(slot);
  t.advance_to(now);
  if (!pri_.erase({arena_.pri_key(slot), id})) {
    throw std::logic_error("IndexedQueue: stale pri key on refresh");
  }
  insert_priority(slot, "IndexedQueue: duplicate pri key on refresh");
  arena_.ct_key(slot) = t.next_change_time();
  checked_insert(ct_, {arena_.ct_key(slot), id}, slot,
                 "IndexedQueue: duplicate ct key on refresh");
}

template <class Ordering>
void IndexedQueue<Ordering>::refresh_fired(SimTime now) {
  // Phase 1 (Algorithm 2, lines 4-19): workflows whose next requirement
  // change has fired leave the ct head (O(1) pop on the skip list), get a
  // fresh priority, and re-enter both orderings. Once this ran for an
  // instant, re-running it at the same instant cannot move anything
  // (next_change_time is strictly in the future after a refresh) unless an
  // insert added a workflow whose first step already fired — so the
  // (ct_clean_now_, ct_dirty_) memo skips even the head peek on the
  // overwhelmingly common repeat-consult case.
  if (!ct_dirty_ && ct_clean_now_ == now) return;
  while (!ct_.empty() && ct_.front().first.first <= now) {
    refresh(ct_.pop_front().second, now);
  }
  ct_clean_now_ = now;
  ct_dirty_ = false;
}

template <class Ordering>
std::uint32_t IndexedQueue<Ordering>::commit_winner(std::uint32_t slot) {
  arena_.tracker(slot).count_scheduled();  // rho+1 <=> p-1
  insert_priority(slot, "IndexedQueue: duplicate pri key on assignment");
  return arena_.id(slot);
}

template <class Ordering>
std::uint32_t IndexedQueue<Ordering>::assign(
    SimTime now, const std::function<bool(std::uint32_t)>& can_use) {
  refresh_fired(now);

  // Phase 2 (lines 20-24): serve the most-lagging workflow that can use the
  // slot. The head case is the common one — this is exactly where the
  // Double Skip List earns its O(1) head deletion; the forward walk covers
  // workflows that are temporarily unassignable (e.g. all jobs waiting on
  // predecessors), keeping the scheduler work-conserving.
  //
  // The sequential entry point stays memo-free: it probes every workflow
  // from the head, so arbitrary (even impure) can_use callables keep their
  // historical semantics. Only assign_batch consults the rejection memo.
  std::uint32_t chosen = WfStateArena::kNilSlot;
  QueueKey chosen_key{};
  bool chosen_is_head = true;
  pri_.for_each([&](const QueueKey& key, std::uint32_t slot) {
    if (can_use(arena_.id(slot))) {
      chosen = slot;
      chosen_key = key;
      return false;
    }
    chosen_is_head = false;
    return true;
  });
  if (chosen == WfStateArena::kNilSlot) return kNone;

  if (chosen_is_head) {
    pri_.pop_front();  // the paper's common case: O(1) on the skip list
  } else if (!pri_.erase(chosen_key)) {
    throw std::logic_error("IndexedQueue: stale pri key on assignment");
  }
  return commit_winner(chosen);
}

template <class Ordering>
std::uint32_t IndexedQueue<Ordering>::assign_batch(
    SimTime now, std::size_t domain, std::uint32_t k,
    const std::function<bool(std::uint32_t)>& can_use,
    const std::function<void(std::uint32_t)>& on_assign) {
  if (k == 0) return 0;
  refresh_fired(now);

  const std::size_t d = domain;
  std::uint32_t picks = 0;
  while (picks < k) {
    // Resume the priority walk at the first key a consult in this domain
    // has not yet settled: everything before resume_[d] is either stamped
    // rejected (skipped below) or was repositioned — and repositions pull
    // resume_[d] back (note_moved), so no unprobed workflow is ever jumped.
    std::uint32_t chosen = WfStateArena::kNilSlot;
    QueueKey chosen_key{};
    pri_.for_each_from(resume_[d], [&](const QueueKey& key, std::uint32_t slot) {
      if (arena_.stamp(d, slot) == epoch_[d]) return true;  // memoized "no"
      if (can_use(arena_.id(slot))) {
        chosen = slot;
        chosen_key = key;
        return false;
      }
      arena_.stamp(d, slot) = epoch_[d];
      return true;
    });
    if (chosen == WfStateArena::kNilSlot) {
      // Every queued workflow is now stamped in this domain: future
      // consults may skip the walk outright until a flip is announced.
      resume_[d] = kWalkNothing;
      break;
    }

    if (!(pri_.front().first < chosen_key)) {
      pri_.pop_front();  // winner is the global head
    } else if (!pri_.erase(chosen_key)) {
      throw std::logic_error("IndexedQueue: stale pri key on assignment");
    }
    // Sequential assign() rescans from the head, where it would re-skip the
    // same rejected prefix and re-probe the winner first (its bumped key can
    // still precede the old successor on lag ties). Resuming at the winner's
    // *old* key reproduces exactly that: the bumped key (old+1, id) and the
    // old successor both sort >= it.
    resume_[d] = chosen_key;
    const std::uint32_t id = commit_winner(chosen);
    ++picks;
    on_assign(id);
  }
  return picks;
}

template <class Ordering>
void IndexedQueue<Ordering>::note_can_use_changed(std::uint32_t id) {
  const std::uint32_t slot = arena_.slot_of(id);
  if (slot == WfStateArena::kNilSlot) return;
  for (std::size_t d = 0; d < WfStateArena::kDomains; ++d) {
    arena_.stamp(d, slot) = 0;  // forget any memoized rejection
  }
  note_moved(slot, {arena_.pri_key(slot), id});
}

template <class Ordering>
void IndexedQueue<Ordering>::invalidate_probe_memo() {
  for (std::size_t d = 0; d < WfStateArena::kDomains; ++d) {
    ++epoch_[d];  // all existing stamps become dead at once
    resume_[d] = kWalkFromHead;
  }
}

template <class Ordering>
void IndexedQueue<Ordering>::on_progress_lost(std::uint32_t id, std::uint64_t count) {
  const std::uint32_t slot = arena_.slot_of(id);
  if (slot == WfStateArena::kNilSlot) return;
  if (!pri_.erase({arena_.pri_key(slot), id})) {
    throw std::logic_error("IndexedQueue: stale pri key on progress loss");
  }
  arena_.tracker(slot).count_lost(count);  // rho-n <=> p+n
  // Lost tasks re-enter the pending pool: any memoized rejection may have
  // flipped (cleared before insert_priority's note_moved sees the stamps).
  for (std::size_t d = 0; d < WfStateArena::kDomains; ++d) {
    arena_.stamp(d, slot) = 0;
  }
  insert_priority(slot, "IndexedQueue: duplicate pri key on progress loss");
}

template <class Ordering>
void IndexedQueue<Ordering>::top(std::size_t k, std::vector<QueueEntry>& out) const {
  // Walk the priority head: O(k), never repositions anything.
  pri_.for_each([&](const QueueKey&, std::uint32_t slot) {
    if (out.size() >= k) return false;
    const ProgressTracker& t = arena_.tracker(slot);
    out.push_back(QueueEntry{arena_.id(slot), t.lag(), t.current_requirement(),
                             t.rho()});
    return true;
  });
}

template <class Ordering>
void IndexedQueue<Ordering>::check_structure() const {
  const std::string who = "IndexedQueue<" + name() + ">::check_structure: ";
  arena_.check(who.c_str());
  // The orderings verify their own key order and size bookkeeping.
  ct_.validate();
  pri_.validate();
  if (ct_.size() != arena_.size() || pri_.size() != arena_.size()) {
    throw std::logic_error(who + "index sizes diverged (states=" +
                           std::to_string(arena_.size()) + " ct=" +
                           std::to_string(ct_.size()) + " pri=" +
                           std::to_string(pri_.size()) + ")");
  }
  // Collecting the id sequences (instead of iterating the arena's unordered
  // id map) keeps this check itself deterministic; equal sorted id sets plus
  // equal sizes prove both orderings cover exactly the queued workflows.
  std::vector<std::uint32_t> ct_ids, pri_ids;
  ct_ids.reserve(arena_.size());
  pri_ids.reserve(arena_.size());
  ct_.for_each([&](const QueueKey& key, std::uint32_t slot) {
    ct_ids.push_back(check_entry(who, arena_, "ct", key, slot, arena_.ct_key(slot),
                                 arena_.tracker(slot).next_change_time()));
    return true;
  });
  pri_.for_each([&](const QueueKey& key, std::uint32_t slot) {
    const std::uint32_t id = check_entry(who, arena_, "pri", key, slot,
                                         arena_.pri_key(slot),
                                         -arena_.tracker(slot).lag());
    // Probe-memo invariant R: a workflow with no live rejection stamp in a
    // domain must sort at or after that domain's resume key, or a resumed
    // walk could jump an unprobed candidate.
    for (std::size_t dm = 0; dm < WfStateArena::kDomains; ++dm) {
      if (arena_.stamp(dm, slot) != epoch_[dm] && key < resume_[dm]) {
        throw std::logic_error(who + "unprobed workflow precedes the domain-" +
                               std::to_string(dm) + " resume key at id " +
                               std::to_string(id));
      }
    }
    pri_ids.push_back(id);
    return true;
  });
  std::sort(ct_ids.begin(), ct_ids.end());
  std::sort(pri_ids.begin(), pri_ids.end());
  if (ct_ids != pri_ids ||
      std::adjacent_find(ct_ids.begin(), ct_ids.end()) != ct_ids.end()) {
    throw std::logic_error(who +
                           "ct and priority orderings do not cover the same "
                           "workflow set exactly once each");
  }
}

template class IndexedQueue<DslOrdering>;
template class IndexedQueue<BstOrdering>;
template class IndexedQueue<BstPlainOrdering>;

}  // namespace woha::core
