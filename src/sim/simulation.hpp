// Discrete-event simulation engine.
//
// The entire Hadoop cluster model runs on this engine: heartbeats, task
// completions, workflow submissions, and submitter-job activations are all
// events. Determinism is a hard requirement (EXPERIMENTS.md numbers must be
// reproducible), so ties in firing time are broken by a monotonically
// increasing sequence number — two events scheduled for the same tick fire in
// scheduling order, never in container order.
//
// The queue is a hashed timing wheel (Varghese & Lauck, SOSP '87) over one
// record pool. Every pending event owns exactly one pooled Record holding
// its callback, (time, seq), period, generation, a next-link and a
// cancelled flag. Records live in fixed-size chunks, so their addresses are
// stable: a callback runs in place even while it schedules more events and
// the pool grows. Freed slots are reused LIFO, which keeps the next record
// handed out cache-hot.
//
// A ring of kWindow one-millisecond buckets covers [base, base + kWindow).
// Each bucket is just a (head, tail) pair of slot indices (8 bytes) naming
// a FIFO list linked through the records — push order == seq order, so
// same-tick FIFO costs nothing — and a bitmap over buckets lets the scan
// skip empty ticks a word at a time. Events beyond the window wait in a
// binary heap of 24-byte (time, seq, slot) entries and are drained into the
// ring whenever the window hops forward. The dominant near-future
// traffic — the per-tracker heartbeat storm, O(trackers) events every period
// — is O(1) per event and allocates nothing: a recurring event
// (schedule_every) keeps its record and is re-linked after each firing.
//
// A recurring event can be *parked* on one or two watched epoch counters
// (park()). While every watched epoch still reads its snapshot, a firing of
// the parked event is skipped in place: the clock moves, the firing counts
// in events_fired() and in the event's skipped() tally, and the record is
// re-armed with the next seq exactly as after a real firing, but the
// callback does not run. The first firing that finds an epoch moved unparks
// the event and runs the callback as usual. Because a skipped firing keeps
// its slot in the wheel and consumes its seq, the order of every other
// event is the same as if the callback had run and returned at once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace woha::sim {

class Simulation;

/// Handle that allows cancelling a scheduled event. Cancellation is lazy: the
/// event stays in the queue but is skipped when popped. A handle names its
/// event by (pool slot, generation); once the event is gone and its slot is
/// reused, the generation no longer matches and cancel() is a no-op. A handle
/// must not outlive the Simulation that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to an event (cancelled or not).
  [[nodiscard]] bool valid() const { return sim_ != nullptr; }
  /// Prevent the event from firing. Safe to call multiple times and after
  /// the event fired (no-op then). Cancelling a periodic event stops all
  /// future firings.
  void cancel();

 private:
  friend class Simulation;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulation {
 public:
  using Callback = std::function<void()>;

  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (ms). 0 before the first event fires.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `when`. `when` must be >= now().
  EventHandle schedule_at(SimTime when, Callback cb);
  /// Schedule `cb` `delay` ms from now.
  EventHandle schedule_after(Duration delay, Callback cb);
  /// Schedule a repeating event every `period` ms, first firing at `first`.
  /// Returns a handle that cancels all future firings.
  EventHandle schedule_every(SimTime first, Duration period, Callback cb);

  /// Park the recurring event `h` until `*epoch` (or `*epoch2`, when given)
  /// moves off its value at this call; resets the event's skipped() tally.
  /// The epochs must outlive the park. No-op for a stale handle; throws for
  /// a one-shot event.
  void park(const EventHandle& h, const std::uint64_t* epoch,
            const std::uint64_t* epoch2 = nullptr);
  /// Firings of `h` skipped since its last park() (0 for a stale handle or
  /// an event never parked). Stays readable after the event wakes.
  [[nodiscard]] std::uint64_t skipped(const EventHandle& h) const;

  /// Number of pending events (cancelled-but-not-yet-popped included).
  [[nodiscard]] std::size_t pending_events() const { return size_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Run until the queue drains or `until` is passed (events with
  /// time > until stay queued; now() stays at the last fired event).
  void run(SimTime until = kTimeInfinity);
  /// Fire events until one runs its callback; returns false when the queue
  /// is empty or the head event is beyond `until`. Parked firings on the
  /// way are skipped (see park()) without returning.
  bool step(SimTime until = kTimeInfinity);
  /// Ask run() to return after the current event completes.
  void request_stop() { stop_requested_ = true; }

  /// Calendar-ring width in ms (also the bucket count: 1 ms per bucket).
  /// Exposed so tests can construct events on both sides of the window.
  static constexpr SimTime kWindow = 65536;
  /// Records per pool chunk. Exposed so tests can grow the pool by more
  /// than one chunk from inside a running callback.
  static constexpr std::size_t kChunkRecords = 1024;

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Record {
    Callback cb;
    SimTime time = 0;
    std::uint64_t seq = 0;
    Duration period = 0;             ///< > 0: re-armed after each firing
    std::uint32_t next = kNil;       ///< bucket FIFO link, or free-list link
    std::uint32_t generation = 0;    ///< bumped each time the slot is freed
    std::uint32_t park = kNil;       ///< parks_ index, kept until release
    bool cancelled = false;
    bool parked = false;             ///< parks_[park] is being watched
  };

  /// Park state of one recurring event, kept out of the hot Record. A
  /// single-epoch park watches the same counter twice.
  struct ParkState {
    const std::uint64_t* epoch[2] = {nullptr, nullptr};
    std::uint64_t snapshot[2] = {0, 0};
    std::uint64_t skipped = 0;
    std::uint32_t next_free = kNil;
  };

  /// One calendar tick's FIFO list; meaningful only while the tick's bit
  /// is set (draining a bucket just clears the bit).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  struct OverflowEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::size_t kBuckets = static_cast<std::size_t>(kWindow);
  static constexpr std::size_t kWords = kBuckets / 64;

  [[nodiscard]] static std::size_t bucket_of(SimTime t) {
    return static_cast<std::size_t>(t) & (kBuckets - 1);
  }
  [[nodiscard]] Record& rec(std::uint32_t slot) {
    return chunks_[slot / kChunkRecords][slot % kChunkRecords];
  }
  [[nodiscard]] const Record* live(const EventHandle& h) const;
  EventHandle enqueue(SimTime when, Duration period, Callback cb);
  /// Re-link a recurring record at its next firing with a fresh seq.
  void rearm(std::uint32_t slot);
  /// Take a free slot (LIFO), growing the pool by one chunk when empty.
  std::uint32_t acquire();
  /// Destroy the slot's callback and return it to the free list; handles
  /// still naming it go stale.
  void release(std::uint32_t slot);
  void cancel(std::uint32_t slot, std::uint32_t generation);
  void push(std::uint32_t slot);
  void ring_push(std::uint32_t slot);
  void heap_push(std::uint32_t slot);
  /// Move every overflow event inside [base_, base_ + kWindow) into the
  /// ring, in (time, seq) order (preserves per-tick FIFO).
  void drain_overflow();
  /// Re-anchor the window at `t` (<= every queued time): spill the ring to
  /// the heap, then drain it back.
  void rewind_window(SimTime t);
  /// First non-empty bucket at or after sweep_ (circular; caller must
  /// guarantee ring_count_ > 0). Advances sweep_ to the found tick.
  [[nodiscard]] std::size_t find_next_bucket();

  std::vector<std::unique_ptr<Record[]>> chunks_;  // the record pool
  std::uint32_t slots_used_ = 0;     // high-water mark of handed-out slots
  std::uint32_t free_head_ = kNil;   // LIFO free list through Record::next
  std::vector<ParkState> parks_;     // side table behind Record::park
  std::uint32_t park_free_ = kNil;   // free list through ParkState::next_free
  std::vector<Bucket> ring_;         // kBuckets, tick = time % kBuckets
  std::vector<std::uint64_t> bits_;  // kWords words: bucket non-empty bits
  std::vector<OverflowEntry> overflow_;  // min-heap: time >= base_ + kWindow
  std::size_t ring_count_ = 0;       // events currently in the ring
  std::size_t size_ = 0;             // total queued events (ring + overflow)
  SimTime base_ = 0;                 // window start (<= every queued time)
  SimTime sweep_ = 0;                // scan cursor, base_ <= sweep_ <= next event

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  bool stop_requested_ = false;
};

}  // namespace woha::sim
