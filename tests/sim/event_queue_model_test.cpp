// The pooled timing-wheel queue against a reference model.
//
// The model is a std::map keyed by (time, seq) — the ordering contract
// itself, with none of the ring/overflow/pool machinery. A seeded driver
// schedules and cancels events (including through stale handles whose pool
// slots were reused), callbacks schedule and cancel more, delays straddle
// the 65,536-ms ring window, and horizon-bounded run(until) phases are
// interleaved with outside scheduling. Every firing must be the model's
// head event at the model's time.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace woha::sim {
namespace {

class ModelHarness {
 public:
  explicit ModelHarness(std::uint64_t seed) : rng_(seed) {}

  void run(SimTime horizon) {
    // Seed population: a few periodic streams and a batch of one-shots.
    const int periodic = static_cast<int>(below(4)) + 1;
    for (int i = 0; i < periodic; ++i) {
      schedule(Kind::kEvery, static_cast<SimTime>(below(5000)),
               static_cast<Duration>(500 + below(80000)));
    }
    for (int i = 0; i < 20; ++i) schedule(random_kind(), sim_.now() + delay(), 0);

    // Horizon-bounded phases, with outside scheduling between them.
    SimTime until = 0;
    while (until < horizon && !diverged_) {
      until += static_cast<SimTime>(1 + below(40000));
      sim_.run(until);
      if (!model_.empty() && model_.begin()->first.first <= until) {
        fail("run(" + std::to_string(until) + ") returned with a due event pending");
      }
      const int outside = static_cast<int>(below(4));
      for (int i = 0; i < outside; ++i) {
        schedule(random_kind(), sim_.now() + delay(), 0);
      }
      if (below(3) == 0) cancel_random();
    }
    // Cancel everything still pending; the drain must fire nothing.
    for (std::size_t id = 0; id < handles_.size(); ++id) cancel(id);
    const std::uint64_t before = sim_.events_fired();
    sim_.run();
    EXPECT_EQ(sim_.events_fired(), before);
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(sim_.events_fired(), fired_);
    EXPECT_TRUE(model_.empty());
  }

  [[nodiscard]] bool diverged() const { return diverged_; }
  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  enum class Kind { kAt, kAfter, kEvery };

  struct ModelEvent {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Duration period = 0;
    bool pending = false;
    bool cancelled = false;
  };

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  Kind random_kind() {
    // Mostly one-shots; a periodic now and then.
    const std::uint64_t r = below(20);
    return r == 0 ? Kind::kEvery : (r < 10 ? Kind::kAt : Kind::kAfter);
  }

  /// A delay mix: same tick, coarse ticks (many ties), and far-future
  /// times on both sides of the ring window.
  Duration delay() {
    switch (below(10)) {
      case 0:
        return 0;
      case 1:
        return Simulation::kWindow - 1 + static_cast<Duration>(below(3));
      case 2:
        return Simulation::kWindow + static_cast<Duration>(below(150000));
      default:
        return 10 * static_cast<Duration>(below(400));
    }
  }

  void schedule(Kind kind, SimTime when, Duration period) {
    const std::size_t id = events_.size();
    if (kind == Kind::kEvery && period == 0) {
      period = static_cast<Duration>(1000 + below(70000));
    }
    ModelEvent e;
    e.time = kind == Kind::kEvery ? std::max(when, sim_.now()) : when;
    e.seq = next_seq_++;
    e.period = kind == Kind::kEvery ? period : 0;
    e.pending = true;
    events_.push_back(e);
    model_.emplace(std::make_pair(e.time, e.seq), id);
    auto cb = [this, id] { fire(id); };
    switch (kind) {
      case Kind::kAt:
        handles_.push_back(sim_.schedule_at(when, cb));
        break;
      case Kind::kAfter:
        handles_.push_back(sim_.schedule_after(when - sim_.now(), cb));
        break;
      case Kind::kEvery:
        handles_.push_back(sim_.schedule_every(when, period, cb));
        break;
    }
  }

  void cancel(std::size_t id) {
    handles_[id].cancel();
    ModelEvent& e = events_[id];
    if (e.pending) {
      model_.erase(std::make_pair(e.time, e.seq));
      e.pending = false;
    }
    e.cancelled = true;  // also stops a firing periodic from re-arming
  }

  /// Cancel any handle ever issued: live, fired, already cancelled, or a
  /// stale one whose slot now holds another event.
  void cancel_random() {
    if (!handles_.empty()) cancel(below(handles_.size()));
  }

  void fail(const std::string& what) {
    if (diverged_) return;
    diverged_ = true;
    std::ostringstream os;
    os << what << " (now=" << sim_.now() << ", fired=" << fired_ << ")";
    failure_ = os.str();
    sim_.request_stop();
  }

  void fire(std::size_t id) {
    if (diverged_) return;
    ++fired_;
    if (model_.empty()) {
      fail("event " + std::to_string(id) + " fired but the model is empty");
      return;
    }
    const auto head = model_.begin();
    if (head->second != id || head->first.first != sim_.now()) {
      fail("event " + std::to_string(id) + " fired; model expected event " +
           std::to_string(head->second) + " at t=" + std::to_string(head->first.first));
      return;
    }
    model_.erase(head);
    events_[id].pending = false;

    // Callback actions: schedule and cancel more, with a bounded budget so
    // the population stays small.
    const int actions = static_cast<int>(below(3));
    for (int i = 0; i < actions; ++i) {
      if (below(4) == 0) {
        cancel_random();
      } else if (budget_ > 0) {
        --budget_;
        schedule(random_kind(), sim_.now() + delay(), 0);
      }
    }
    if (events_[id].period > 0 && budget_ > 0 && below(3) == 0) {
      // Lands on this stream's next tick: it must fire before the re-arm.
      --budget_;
      schedule(Kind::kAt, sim_.now() + events_[id].period, 0);
    }
    if (below(50) == 0) cancel(id);  // cancel self (stops a periodic)

    ModelEvent& e = events_[id];
    if (e.period > 0 && !e.cancelled) {
      // The simulation re-arms after the callback returns, taking the next
      // seq — nothing else is scheduled in between.
      e.time += e.period;
      e.seq = next_seq_++;
      e.pending = true;
      model_.emplace(std::make_pair(e.time, e.seq), id);
    }
  }

  Simulation sim_;
  std::mt19937_64 rng_;
  std::map<std::pair<SimTime, std::uint64_t>, std::size_t> model_;
  std::vector<ModelEvent> events_;
  std::vector<EventHandle> handles_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  int budget_ = 1500;
  bool diverged_ = false;
  std::string failure_;
};

TEST(EventQueueModel, MatchesReferenceOrderOverSeeds) {
  std::uint64_t total_fired = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    ModelHarness h(seed);
    h.run(400000);
    ASSERT_FALSE(h.diverged()) << "seed " << seed << ": " << h.failure();
    total_fired += h.fired();
  }
  EXPECT_GT(total_fired, 100000u);  // the sweep really exercises the queue
}

TEST(EventQueueModel, StaleHandleDoesNotCancelReusedSlot) {
  Simulation sim;
  std::vector<int> order;
  // Fired one-shot: its slot is reused (LIFO) by the next event.
  EventHandle fired = sim.schedule_at(10, [&] { order.push_back(1); });
  sim.run();
  sim.schedule_at(20, [&] { order.push_back(2); });
  fired.cancel();
  // Cancelled one-shot, popped and freed, then its slot reused.
  EventHandle cancelled = sim.schedule_at(30, [&] { order.push_back(99); });
  cancelled.cancel();
  sim.schedule_at(25, [&] { order.push_back(3); });
  sim.run();
  sim.schedule_at(40, [&] { order.push_back(4); });
  sim.schedule_at(40, [&] { order.push_back(5); });
  cancelled.cancel();
  fired.cancel();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(EventQueueModel, PeriodicCallbackGrowsPoolByMoreThanOneChunk) {
  Simulation sim;
  const std::size_t spawn = 2 * Simulation::kChunkRecords + 17;
  std::size_t one_shots = 0;
  int firings = 0;
  // The capture lives in the record the callback runs from; growing the
  // pool mid-callback must neither move nor clobber it.
  const std::string tag(64, 'x');
  EventHandle h = sim.schedule_every(0, 10, [&, tag] {
    ++firings;
    EXPECT_EQ(tag, std::string(64, 'x'));
    if (firings == 1) {
      for (std::size_t i = 0; i < spawn; ++i) {
        sim.schedule_after(5, [&] { ++one_shots; });
      }
    }
    EXPECT_EQ(tag, std::string(64, 'x'));
    if (firings == 3) h.cancel();
  });
  sim.run();
  EXPECT_EQ(firings, 3);
  EXPECT_EQ(one_shots, spawn);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventQueueModel, PeriodicCancelledFromOwnCallback) {
  Simulation sim;
  int firings = 0;
  EventHandle h;
  h = sim.schedule_every(5, 7, [&] {
    if (++firings == 3) h.cancel();
  });
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_EQ(firings, 3);  // t = 5, 12, 19
  EXPECT_EQ(sim.events_fired(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
  h.cancel();  // stale now: a no-op
}

TEST(EventQueueModel, SameTickFifoAcrossOverflowDrain) {
  Simulation sim;
  const SimTime far = 2 * Simulation::kWindow + 7;
  std::vector<char> order;
  // Both land in the overflow heap at t = 0.
  sim.schedule_at(far, [&] { order.push_back('A'); });
  sim.schedule_at(far, [&] { order.push_back('B'); });
  // Fires inside the current window, then schedules the same far tick
  // (still beyond the window: it joins the heap behind A and B).
  sim.schedule_at(Simulation::kWindow - 10, [&] {
    sim.schedule_at(far, [&] { order.push_back('C'); });
  });
  // After the window hops here, A, B and C are drained into the ring; D and
  // E are pushed straight into the same bucket behind them.
  sim.schedule_at(far - 100, [&] {
    sim.schedule_at(far, [&] { order.push_back('D'); });
    sim.schedule_at(far, [&] { order.push_back('E'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'D', 'E'}));
}

TEST(EventQueueModel, ScheduleAfterHorizonStopKeepsTimeOrder) {
  // run(until) can stop with its scan parked on an event beyond `until`;
  // an event scheduled afterwards in between must still fire first.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(10); });
  sim.schedule_at(100, [&] { order.push_back(100); });
  sim.run(50);
  sim.schedule_at(60, [&] { order.push_back(60); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 60, 100}));
}

TEST(EventQueueModel, ScheduleBeforeHoppedWindowKeepsTimeOrder) {
  // A horizon-bounded run may hop the window past the clock (to a
  // cancelled far event); scheduling before the hopped window must rewind.
  Simulation sim;
  std::vector<SimTime> order;
  const SimTime far = 3 * Simulation::kWindow;
  EventHandle cancelled = sim.schedule_at(far, [&] { order.push_back(-1); });
  sim.schedule_at(far + 10, [&] { order.push_back(far + 10); });
  sim.schedule_at(far + Simulation::kWindow + 3,
                  [&] { order.push_back(far + Simulation::kWindow + 3); });
  cancelled.cancel();
  sim.run(far + 5);
  EXPECT_EQ(sim.now(), 0);
  sim.schedule_at(50, [&] { order.push_back(50); });
  sim.schedule_at(far - 1, [&] { order.push_back(far - 1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<SimTime>{50, far - 1, far + 10,
                                         far + Simulation::kWindow + 3}));
}

}  // namespace
}  // namespace woha::sim
