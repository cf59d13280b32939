// The pooled timing-wheel queue against a reference model.
//
// The model is a std::map keyed by (time, seq) — the ordering contract
// itself, with none of the ring/overflow/pool machinery. A seeded driver
// schedules and cancels events (including through stale handles whose pool
// slots were reused), callbacks schedule and cancel more, delays straddle
// the 65,536-ms ring window, and horizon-bounded run(until) phases are
// interleaved with outside scheduling. Every firing must be the model's
// head event at the model's time.
//
// Parking is checked against a twin: a Simulation whose periodic streams
// are parked must run the same real callbacks, at the same times and in the
// same order, and fire as many events, as a twin that never parks and
// instead lets each stream's callback compare the epochs and return.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
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

// One side of the parking twin test. Both sides draw the same seeded
// decisions, and only inside real callbacks (or between run() phases), so
// equal real-callback logs mean equal behaviour.
class ParkSide {
 public:
  ParkSide(bool parking, std::uint64_t seed) : parking_(parking), rng_(seed) {}

  struct Entry {
    SimTime time;
    std::size_t stream;
    std::uint64_t skipped;  ///< firings skipped since the stream's last park
    bool operator==(const Entry&) const = default;
  };

  void run(SimTime horizon) {
    const int streams = static_cast<int>(below(5)) + 2;
    for (int i = 0; i < streams; ++i) add_stream();
    SimTime until = 0;
    while (until < horizon) {
      // Horizon-bounded phases stop mid-park; outside bumps and parks
      // happen between them.
      until += static_cast<SimTime>(1 + below(90000));
      sim_.run(until);
      if (below(2) == 0) ++epochs_[below(kEpochs)];
      if (below(4) == 0) park(below(streams_.size()));
      if (below(8) == 0) cancel_stream(below(streams_.size()));
    }
    // Cancel every stream, parked or not; only pending one-shots fire.
    for (Stream& st : streams_) st.handle.cancel();
    const std::size_t real = log_.size();
    sim_.run();
    EXPECT_EQ(log_.size(), real);
    EXPECT_EQ(sim_.pending_events(), 0u);
  }

  [[nodiscard]] const std::vector<Entry>& log() const { return log_; }
  [[nodiscard]] std::uint64_t fired() const { return sim_.events_fired(); }
  /// Stream firings whose callback did no real work.
  [[nodiscard]] std::uint64_t skipped_total() const {
    return sim_.events_fired() - log_.size() - one_shots_fired_;
  }

 private:
  static constexpr std::size_t kEpochs = 3;

  struct Stream {
    EventHandle handle;
    Duration period = 0;
    // Twin-side park state (unused when parking_).
    bool parked = false;
    std::size_t watch[2] = {0, 0};
    std::uint64_t snapshot[2] = {0, 0};
    std::uint64_t skipped = 0;
  };

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  void add_stream() {
    const std::size_t id = streams_.size();
    Stream st;
    // Periods on both sides of the ring window: long ones park across
    // window hops and overflow drains. Times on a 100-ms grid make streams
    // share ticks, so same-tick order decides what a firing sees.
    st.period = 100 * static_cast<Duration>(below(3) == 0 ? 656 + below(400) : 1 + below(300));
    st.handle = sim_.schedule_every(sim_.now() + 100 * static_cast<SimTime>(below(50)),
                                    st.period, [this, id] { fire(id); });
    streams_.push_back(st);
  }

  void park(std::size_t id) {
    Stream& st = streams_[id];
    const std::size_t a = below(kEpochs);
    const bool two = below(2) == 0;
    const std::size_t b = two ? below(kEpochs) : a;
    if (parking_) {
      // May name a cancelled stream whose record is gone (stale handle).
      sim_.park(st.handle, &epochs_[a], two ? &epochs_[b] : nullptr);
      return;
    }
    st.parked = true;
    st.watch[0] = a;
    st.watch[1] = b;
    st.snapshot[0] = epochs_[a];
    st.snapshot[1] = epochs_[b];
    st.skipped = 0;
  }

  void cancel_stream(std::size_t id) { streams_[id].handle.cancel(); }

  void bump_later(SimTime when) {
    const std::size_t e = below(kEpochs);
    sim_.schedule_at(when, [this, e] {
      ++one_shots_fired_;
      ++epochs_[e];
      if (below(3) == 0) park(below(streams_.size()));
    });
  }

  void fire(std::size_t id) {
    Stream& st = streams_[id];
    if (!parking_ && st.parked) {
      if (epochs_[st.watch[0]] == st.snapshot[0] &&
          epochs_[st.watch[1]] == st.snapshot[1]) {
        ++st.skipped;  // the twin's in-callback no-op
        return;
      }
      st.parked = false;
    }
    const std::uint64_t skipped = parking_ ? sim_.skipped(st.handle) : st.skipped;
    log_.push_back(Entry{sim_.now(), id, skipped});

    // Same-tick bumps: now (later firings this tick see it), scheduled for
    // this tick (after the firings already queued), and scheduled on some
    // stream's next tick (before its re-armed firing when that stream is
    // this one, after it otherwise).
    if (below(4) == 0) ++epochs_[below(kEpochs)];
    if (below(4) == 0) bump_later(sim_.now());
    if (below(3) == 0) {
      const Stream& other = streams_[below(streams_.size())];
      bump_later(sim_.now() + other.period);
    }
    if (below(3) == 0) bump_later(sim_.now() + 100 * static_cast<SimTime>(below(30)));
    if (below(2) == 0) park(id);
    if (below(10) == 0) park(below(streams_.size()));
    if (below(40) == 0) cancel_stream(below(streams_.size()));
    if (streams_.size() < 12 && below(60) == 0) add_stream();
  }

  bool parking_;
  std::mt19937_64 rng_;
  Simulation sim_;
  std::uint64_t epochs_[kEpochs] = {0, 0, 0};
  std::vector<Stream> streams_;
  std::vector<Entry> log_;
  std::uint64_t one_shots_fired_ = 0;
};

TEST(EventQueueModel, ParkedStreamsMatchCheckingTwinOverSeeds) {
  std::uint64_t skipped = 0;
  std::uint64_t real = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    ParkSide parked(/*parking=*/true, seed);
    ParkSide twin(/*parking=*/false, seed);
    parked.run(1500000);
    twin.run(1500000);
    ASSERT_EQ(parked.fired(), twin.fired()) << "seed " << seed;
    ASSERT_EQ(parked.log().size(), twin.log().size()) << "seed " << seed;
    for (std::size_t i = 0; i < parked.log().size(); ++i) {
      const auto& a = parked.log()[i];
      const auto& b = twin.log()[i];
      ASSERT_EQ(a, b) << "seed " << seed << " callback " << i << ": parked (t=" << a.time
                      << ", stream " << a.stream << ", skipped " << a.skipped
                      << ") vs twin (t=" << b.time << ", stream " << b.stream
                      << ", skipped " << b.skipped << ")";
    }
    skipped += parked.skipped_total();
    real += parked.log().size();
  }
  // The sweep really parks: a good share of firings is skipped.
  EXPECT_GT(skipped, 10000u);
  EXPECT_GT(real, 10000u);
}

TEST(EventQueueModel, ParkSkipsUntilAnEpochMoves) {
  Simulation sim;
  std::uint64_t epoch = 0;
  std::vector<SimTime> real;
  EventHandle h = sim.schedule_every(0, 10, [&] { real.push_back(sim.now()); });
  sim.run(0);
  sim.park(h, &epoch);
  sim.schedule_at(35, [&] { ++epoch; });  // after the t=30 firing, before t=40
  sim.run(25);
  EXPECT_EQ(sim.now(), 20);  // skipped firings still move the clock
  EXPECT_EQ(sim.skipped(h), 2u);
  sim.run(50);
  EXPECT_EQ(real, (std::vector<SimTime>{0, 40, 50}));
  EXPECT_EQ(sim.skipped(h), 3u);  // t = 10, 20, 30; readable after waking
  EXPECT_EQ(sim.events_fired(), 7u);
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.skipped(h), 0u);  // stale handle
}

TEST(EventQueueModel, ParkedEventCancelsAndStaleParkIsANoop) {
  Simulation sim;
  std::uint64_t epoch = 0;
  int fired = 0;
  EventHandle one_shot = sim.schedule_at(5, [] {});
  EXPECT_THROW(sim.park(one_shot, &epoch), std::logic_error);
  sim.run();
  // The one-shot's slot is reused by this stream; the stale handle must not
  // park it.
  EventHandle stream = sim.schedule_every(10, 10, [&] { ++fired; });
  sim.park(one_shot, &epoch);
  sim.run(30);
  EXPECT_EQ(fired, 3);
  sim.park(stream, &epoch);
  sim.run(60);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.skipped(stream), 3u);
  stream.cancel();
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_fired(), 7u);  // the one-shot + 3 real + 3 skipped
}

}  // namespace
}  // namespace woha::sim
