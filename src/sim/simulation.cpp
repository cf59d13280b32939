#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace woha::sim {

namespace {

/// std::push_heap/pop_heap comparator for a (time, seq) min-heap.
struct LaterFirst {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
};

}  // namespace

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel(slot_, generation_);
}

Simulation::Simulation() : ring_(kBuckets), bits_(kWords, 0) {}

EventHandle Simulation::schedule_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("Simulation::schedule_at: time in the past");
  }
  return enqueue(when, 0, std::move(cb));
}

EventHandle Simulation::schedule_after(Duration delay, Callback cb) {
  if (delay < 0) throw std::invalid_argument("Simulation::schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

EventHandle Simulation::schedule_every(SimTime first, Duration period, Callback cb) {
  if (period <= 0) throw std::invalid_argument("Simulation::schedule_every: period <= 0");
  // One record serves every firing; step() re-links it after each one.
  return enqueue(std::max(first, now_), period, std::move(cb));
}

EventHandle Simulation::enqueue(SimTime when, Duration period, Callback cb) {
  const std::uint32_t slot = acquire();
  Record& r = rec(slot);
  r.cb = std::move(cb);
  r.time = when;
  r.seq = next_seq_++;
  r.period = period;
  push(slot);
  return EventHandle(this, slot, r.generation);
}

std::uint32_t Simulation::acquire() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = rec(slot).next;
    return slot;
  }
  if (slots_used_ == chunks_.size() * kChunkRecords) {
    chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
  }
  return slots_used_++;
}

void Simulation::release(std::uint32_t slot) {
  Record& r = rec(slot);
  r.cb = nullptr;
  r.cancelled = false;
  if (r.park != kNil) {
    parks_[r.park].next_free = park_free_;
    park_free_ = r.park;
    r.park = kNil;
    r.parked = false;
  }
  ++r.generation;
  r.next = free_head_;
  free_head_ = slot;
}

void Simulation::cancel(std::uint32_t slot, std::uint32_t generation) {
  Record& r = rec(slot);
  if (r.generation == generation) r.cancelled = true;
}

const Simulation::Record* Simulation::live(const EventHandle& h) const {
  if (h.sim_ != this) return nullptr;
  const Record& r = chunks_[h.slot_ / kChunkRecords][h.slot_ % kChunkRecords];
  return r.generation == h.generation_ ? &r : nullptr;
}

void Simulation::park(const EventHandle& h, const std::uint64_t* epoch,
                      const std::uint64_t* epoch2) {
  if (live(h) == nullptr) return;
  Record& r = rec(h.slot_);
  if (r.period <= 0) throw std::logic_error("Simulation::park: one-shot event");
  if (r.park == kNil) {
    if (park_free_ != kNil) {
      r.park = park_free_;
      park_free_ = parks_[r.park].next_free;
    } else {
      r.park = static_cast<std::uint32_t>(parks_.size());
      parks_.emplace_back();
    }
  }
  if (epoch2 == nullptr) epoch2 = epoch;
  ParkState& p = parks_[r.park];
  p.epoch[0] = epoch;
  p.epoch[1] = epoch2;
  p.snapshot[0] = *epoch;
  p.snapshot[1] = *epoch2;
  p.skipped = 0;
  r.parked = true;
}

std::uint64_t Simulation::skipped(const EventHandle& h) const {
  const Record* r = live(h);
  return r != nullptr && r->park != kNil ? parks_[r->park].skipped : 0;
}

void Simulation::rearm(std::uint32_t slot) {
  Record& r = rec(slot);
  r.time += r.period;
  r.seq = next_seq_++;
  push(slot);
}

void Simulation::push(std::uint32_t slot) {
  const SimTime t = rec(slot).time;
  if (size_ == 0) {
    // Empty queue: re-anchor the window at the clock so every schedulable
    // time (>= now) is representable.
    base_ = sweep_ = now_;
  } else if (t < sweep_) {
    // Only after step(until) stopped early: its scan (and possibly a window
    // hop) ran ahead of the clock to an event beyond `until`.
    rewind_window(t);
  }
  ++size_;
  if (t < base_ + kWindow) {
    ring_push(slot);
  } else {
    heap_push(slot);
  }
}

void Simulation::ring_push(std::uint32_t slot) {
  Record& r = rec(slot);
  r.next = kNil;
  const std::size_t b = bucket_of(r.time);
  std::uint64_t& word = bits_[b >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (b & 63);
  Bucket& bucket = ring_[b];
  if ((word & bit) == 0) {
    word |= bit;
    bucket.head = slot;
  } else {
    rec(bucket.tail).next = slot;
  }
  bucket.tail = slot;
  ++ring_count_;
}

void Simulation::heap_push(std::uint32_t slot) {
  const Record& r = rec(slot);
  overflow_.push_back(OverflowEntry{r.time, r.seq, slot});
  std::push_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
}

void Simulation::drain_overflow() {
  // Heap pops come out in (time, seq) order, so per-tick append order stays
  // FIFO. Events already in the ring for the same tick cannot exist: the
  // ring is empty whenever the window moves (see step() and rewind_window()).
  while (!overflow_.empty() && overflow_.front().time < base_ + kWindow) {
    std::pop_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
    const std::uint32_t slot = overflow_.back().slot;
    overflow_.pop_back();
    ring_push(slot);
  }
}

void Simulation::rewind_window(SimTime t) {
  for (std::size_t word = 0; word < kWords; ++word) {
    for (std::uint64_t w = bits_[word]; w != 0; w &= w - 1) {
      const std::size_t b = (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      for (std::uint32_t s = ring_[b].head; s != kNil; s = rec(s).next) heap_push(s);
    }
    bits_[word] = 0;
  }
  ring_count_ = 0;
  base_ = sweep_ = t;
  drain_overflow();
}

std::size_t Simulation::find_next_bucket() {
  std::size_t b = bucket_of(sweep_);
  std::size_t word = b >> 6;
  // First word: mask off buckets before the cursor.
  std::uint64_t w = bits_[word] & (~std::uint64_t{0} << (b & 63));
  for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
    if (w != 0) {
      const std::size_t found = (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      // Translate the circular bucket index back to an absolute tick at or
      // after sweep_ (the ring spans less than one full window).
      const std::size_t cur = bucket_of(sweep_);
      const SimTime ahead = static_cast<SimTime>(
          found >= cur ? found - cur : kBuckets - cur + found);
      sweep_ += ahead;
      return found;
    }
    word = (word + 1) & (kWords - 1);
    w = bits_[word];
  }
  throw std::logic_error("Simulation: ring bitmap inconsistent");
}

bool Simulation::step(SimTime until) {
  while (size_ > 0) {
    if (ring_count_ == 0) {
      // Window exhausted: hop it to the next far-future event. The check
      // against `until` comes first so a no-op step never moves the window.
      const SimTime next = overflow_.front().time;
      if (next > until) return false;
      base_ = sweep_ = next;
      drain_overflow();
    }
    const std::size_t b = find_next_bucket();
    if (sweep_ > until) return false;
    Bucket& bucket = ring_[b];
    const std::uint32_t slot = bucket.head;
    Record& r = rec(slot);
    bucket.head = r.next;
    if (bucket.head == kNil) bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    --ring_count_;
    --size_;
    // Skip cancelled events without advancing the clock for them.
    if (r.cancelled) {
      release(slot);
      continue;
    }
    now_ = r.time;
    ++fired_;
    if (r.parked) {
      ParkState& p = parks_[r.park];
      if (*p.epoch[0] == p.snapshot[0] && *p.epoch[1] == p.snapshot[1]) {
        // Nothing the callback watches has moved: skip it, keep the slot.
        ++p.skipped;
        rearm(slot);
        continue;
      }
      r.parked = false;
    }
    // Runs in place: chunk addresses are stable, so `r` survives any events
    // the callback schedules.
    r.cb();
    if (r.period > 0 && !r.cancelled) {
      // Re-arm after the callback, so events it scheduled for the next
      // firing's tick keep smaller seqs (the legacy recursive-lambda order).
      rearm(slot);
    } else {
      release(slot);
    }
    return true;
  }
  return false;
}

void Simulation::run(SimTime until) {
  stop_requested_ = false;
  while (!stop_requested_ && step(until)) {
  }
}

}  // namespace woha::sim
