// assign_batch(k) must be decision-equivalent to k successive assign()
// calls — same winners, same order, same resulting queue state — for every
// SchedulerQueue implementation, under the probe-memo contract: can_use
// depends only on (id, domain) and every false -> true flip is announced
// (note_can_use_changed / on_progress_lost / invalidate_probe_memo).
//
// The fuzz drives a batch-fed queue and a sequentially-fed twin of the same
// kind through one shared availability model (per-workflow, per-domain task
// credits), interleaving grants, progress losses, remove/reinsert churn,
// plain assign() calls between batches, and memo invalidations, asserting
// the pick sequences, sizes and head orderings never diverge. A shared-plan
// variant makes equal-lag ties the common case, so the memo's resume-key
// handling around tie re-probes is exercised, not just the happy path.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/queue_naive.hpp"
#include "core/scheduler_queue.hpp"

namespace woha::core {
namespace {

constexpr std::size_t kDomains = SchedulerQueue::kProbeDomains;

/// Per-workflow assignable-task credits, one pool per probe domain. This is
/// the caller-side state the memo contract talks about: can_use(id) is a
/// pure function of the credits, grants are announced, assignments consume.
class CreditModel {
 public:
  void add_workflow(std::uint32_t id) {
    if (credits_.size() <= id) credits_.resize(id + 1);
    credits_[id] = {};
  }

  void grant(std::uint32_t id, std::size_t domain, std::uint64_t n) {
    credits_[id][domain] += n;
  }

  void consume(std::uint32_t id, std::size_t domain) {
    ASSERT_GT(credits_[id][domain], 0u) << "picked workflow without credits";
    --credits_[id][domain];
  }

  [[nodiscard]] std::function<bool(std::uint32_t)> can_use(std::size_t domain) const {
    return [this, domain](std::uint32_t id) {
      return id < credits_.size() && credits_[id][domain] > 0;
    };
  }

 private:
  std::vector<std::array<std::uint64_t, kDomains>> credits_;
};

/// One queue plus its own copy of the availability model. Both twins receive
/// identical external events; equality of their pick sequences keeps the two
/// models identical, so later rounds stay comparable.
struct Twin {
  std::unique_ptr<SchedulerQueue> queue;
  CreditModel credits;
};

class QueueBatchTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  // Plans must outlive ProgressTrackers; deque keeps addresses stable.
  std::deque<SchedulingPlan> plans_;

  void insert_everywhere(std::initializer_list<Twin*> twins, std::uint32_t id,
                         const SchedulingPlan* plan, SimTime deadline) {
    for (Twin* t : twins) {
      t->queue->insert(id, ProgressTracker(plan, deadline));
      t->credits.add_workflow(id);
    }
  }

  /// `k` plain assign() calls, stopping at the first kNone — the reference
  /// semantics assign_batch must reproduce.
  static std::vector<std::uint32_t> sequential_assigns(Twin& t, SimTime now,
                                                       std::size_t domain,
                                                       std::uint32_t k) {
    std::vector<std::uint32_t> picks;
    const auto can_use = t.credits.can_use(domain);
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t id = t.queue->assign(now, can_use);
      if (id == SchedulerQueue::kNone) break;
      t.credits.consume(id, domain);
      picks.push_back(id);
    }
    return picks;
  }

  static std::vector<std::uint32_t> batch_assigns(Twin& t, SimTime now,
                                                  std::size_t domain,
                                                  std::uint32_t k) {
    std::vector<std::uint32_t> picks;
    const std::uint32_t n = t.queue->assign_batch(
        now, domain, k, t.credits.can_use(domain),
        [&](std::uint32_t id) {
          t.credits.consume(id, domain);
          picks.push_back(id);
        });
    EXPECT_EQ(n, picks.size());
    return picks;
  }

  static void expect_same_ordering(const Twin& a, const Twin& b, SimTime now) {
    ASSERT_EQ(a.queue->size(), b.queue->size()) << "t=" << now;
    std::vector<SchedulerQueue::QueueEntry> ea, eb;
    a.queue->top(a.queue->size(), ea);
    b.queue->top(b.queue->size(), eb);
    ASSERT_EQ(ea.size(), eb.size()) << "t=" << now;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(ea[i].id, eb[i].id) << "head position " << i << " t=" << now;
      ASSERT_EQ(ea[i].lag, eb[i].lag) << "head position " << i << " t=" << now;
      ASSERT_EQ(ea[i].rho, eb[i].rho) << "head position " << i << " t=" << now;
    }
  }

  /// The fuzz body; `shared_plan` switches between random per-workflow plans
  /// (general case) and one plan for everybody (every comparison ties).
  void run_fuzz(std::uint64_t seed, bool shared_plan) {
    Rng rng(seed);
    Twin seq{make_queue(GetParam()), {}};
    Twin bat{make_queue(GetParam()), {}};
    const auto both = {&seq, &bat};

    const std::uint32_t n_workflows =
        static_cast<std::uint32_t>(rng.uniform_int(3, 16));
    if (shared_plan) {
      SchedulingPlan plan;
      for (Duration ttd = 400; ttd > 0; ttd -= 40) {
        plan.append_step(ttd, static_cast<std::uint64_t>((400 - ttd) / 40 + 1));
      }
      plan.simulated_makespan = plan.step_ttd(0);
      plans_.push_back(std::move(plan));
    }
    const auto make_plan = [&]() -> const SchedulingPlan* {
      if (shared_plan) return &plans_.front();
      SchedulingPlan plan;
      Duration ttd = rng.uniform_int(50, 400);
      std::uint64_t cum = 0;
      const int n_steps = static_cast<int>(rng.uniform_int(1, 8));
      for (int s = 0; s < n_steps; ++s) {
        cum += static_cast<std::uint64_t>(rng.uniform_int(1, 9));
        plan.append_step(ttd, cum);
        ttd -= rng.uniform_int(5, 40);
        if (ttd <= 0) break;
      }
      plan.simulated_makespan = plan.step_ttd(0);
      plans_.push_back(std::move(plan));
      return &plans_.back();
    };
    const SimTime deadline_base = shared_plan ? 400 : 0;
    for (std::uint32_t w = 0; w < n_workflows; ++w) {
      const SimTime deadline =
          deadline_base > 0 ? deadline_base : rng.uniform_int(100, 500);
      insert_everywhere(both, w, make_plan(), deadline);
    }
    // Initial availability: a few credits per workflow in each domain.
    for (std::uint32_t w = 0; w < n_workflows; ++w) {
      for (std::size_t d = 0; d < kDomains; ++d) {
        const auto n = rng.uniform_int(0, 3);
        for (Twin* t : both) t->credits.grant(w, d, n);
      }
    }

    SimTime now = 0;
    for (int round = 0; round < 160; ++round) {
      now += rng.uniform_int(0, 10);
      const std::uint64_t dice = rng.next();

      // Grants: new tasks become assignable; a false -> true flip, so the
      // contract requires note_can_use_changed on the memoizing queue.
      if ((dice & 3) != 0) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, n_workflows - 1));
        const auto domain = static_cast<std::size_t>(rng.uniform_int(0, kDomains - 1));
        const auto n = rng.uniform_int(1, 3);
        for (Twin* t : both) {
          t->credits.grant(id, domain, n);
          t->queue->note_can_use_changed(id);
        }
      }
      // Progress loss: rho regresses and the lost tasks re-enter the pool
      // (on_progress_lost doubles as the memo announcement).
      if ((dice & 15) == 1) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, n_workflows - 1));
        const auto domain = static_cast<std::size_t>(rng.uniform_int(0, kDomains - 1));
        for (Twin* t : both) {
          t->queue->on_progress_lost(id, 2);
          t->credits.grant(id, domain, 2);
        }
      }
      // Churn: remove + reinsert resets rho to zero everywhere; the memo
      // must treat the fresh insert as unprobed.
      if ((dice & 63) == 2) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, n_workflows - 1));
        const SimTime deadline =
            deadline_base > 0 ? deadline_base : now + rng.uniform_int(100, 500);
        const SchedulingPlan* plan = shared_plan ? &plans_.front() : make_plan();
        for (Twin* t : both) {
          t->queue->remove(id);
          t->queue->insert(id, ProgressTracker(plan, deadline));
        }
      }
      // A consult outside the memo contract happened (e.g. a blacklist-
      // filtered offer): both twins drop everything; decisions must not move.
      if ((dice & 127) == 3) {
        for (Twin* t : both) t->queue->invalidate_probe_memo();
      }

      const auto domain = static_cast<std::size_t>(rng.uniform_int(0, kDomains - 1));
      if ((dice & 7) == 4) {
        // Interleaved single-slot consults: the plain assign() path must
        // keep the memo's resume keys honest while it repositions winners.
        const auto a = sequential_assigns(seq, now, domain, 1);
        const auto b = sequential_assigns(bat, now, domain, 1);
        ASSERT_EQ(a, b) << "round " << round << " t=" << now;
      } else {
        const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
        const auto a = sequential_assigns(seq, now, domain, k);
        const auto b = batch_assigns(bat, now, domain, k);
        ASSERT_EQ(a, b) << "round " << round << " t=" << now << " k=" << k;
      }

      ASSERT_NO_THROW(seq.queue->check_structure()) << "round " << round;
      ASSERT_NO_THROW(bat.queue->check_structure()) << "round " << round;
      if ((dice & 7) == 5) expect_same_ordering(seq, bat, now);
    }
    expect_same_ordering(seq, bat, now);
  }
};

TEST_P(QueueBatchTest, BatchMatchesSequentialUnderFuzz) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_fuzz(seed, /*shared_plan=*/false);
    plans_.clear();
  }
}

TEST_P(QueueBatchTest, BatchMatchesSequentialWhenEveryLagTies) {
  for (std::uint64_t seed = 100; seed <= 108; ++seed) {
    run_fuzz(seed, /*shared_plan=*/true);
    plans_.clear();
  }
}

TEST_P(QueueBatchTest, BatchOfZeroAndEmptyQueueAreNoops) {
  Twin t{make_queue(GetParam()), {}};
  std::uint32_t calls = 0;
  const auto count = [&](std::uint32_t) { ++calls; };
  EXPECT_EQ(t.queue->assign_batch(0, 0, 4, t.credits.can_use(0), count), 0u);
  SchedulingPlan plan;
  plan.append_step(100, 5);
  plan.simulated_makespan = 100;
  plans_.push_back(std::move(plan));
  t.queue->insert(1, ProgressTracker(&plans_.back(), 100));
  t.credits.add_workflow(1);
  t.credits.grant(1, 0, 5);
  EXPECT_EQ(t.queue->assign_batch(0, 0, 0, t.credits.can_use(0), count), 0u);
  EXPECT_EQ(calls, 0u);
}

TEST_P(QueueBatchTest, ShortBatchMeansFinalProbeWasEmpty) {
  Twin t{make_queue(GetParam()), {}};
  SchedulingPlan plan;
  plan.append_step(100, 8);
  plan.simulated_makespan = 100;
  plans_.push_back(std::move(plan));
  for (std::uint32_t id : {1u, 2u}) {
    t.queue->insert(id, ProgressTracker(&plans_.front(), 100));
    t.credits.add_workflow(id);
  }
  t.credits.grant(1, 0, 1);
  t.credits.grant(2, 0, 2);
  std::vector<std::uint32_t> picks;
  const auto record = [&](std::uint32_t id) {
    t.credits.consume(id, 0);
    picks.push_back(id);
  };
  // Only 3 credits exist: a batch of 5 drains them and reports 3.
  EXPECT_EQ(t.queue->assign_batch(0, 0, 5, t.credits.can_use(0), record), 3u);
  EXPECT_EQ(picks.size(), 3u);
  // The drained state persists: the next batch finds nothing...
  EXPECT_EQ(t.queue->assign_batch(0, 0, 5, t.credits.can_use(0), record), 0u);
  // ...until a grant is announced, after which exactly that workflow serves.
  t.credits.grant(2, 0, 1);
  t.queue->note_can_use_changed(2);
  EXPECT_EQ(t.queue->assign_batch(0, 0, 5, t.credits.can_use(0), record), 1u);
  EXPECT_EQ(picks.back(), 2u);
  ASSERT_NO_THROW(t.queue->check_structure());
}

TEST_P(QueueBatchTest, ProbeMemoIsPerDomain) {
  Twin t{make_queue(GetParam()), {}};
  SchedulingPlan plan;
  plan.append_step(100, 4);
  plan.simulated_makespan = 100;
  plans_.push_back(std::move(plan));
  t.queue->insert(1, ProgressTracker(&plans_.front(), 100));
  t.credits.add_workflow(1);
  t.credits.grant(1, 1, 2);  // tasks only in domain 1
  const auto consume = [&](std::uint32_t id) { t.credits.consume(id, 1); };
  const auto noop = [](std::uint32_t) {};
  // Domain 0 drains empty; domain 1 must be unaffected by its rejections.
  EXPECT_EQ(t.queue->assign_batch(0, 0, 3, t.credits.can_use(0), noop), 0u);
  EXPECT_EQ(t.queue->assign_batch(0, 1, 3, t.credits.can_use(1), consume), 2u);
  ASSERT_NO_THROW(t.queue->check_structure());
}

// Not part of the cross-implementation contract (memoization is a "may"),
// but the point of the DSL/BST memo: a workflow probed false is not
// re-probed by later batches in the same domain until announced. The naive
// strawman keeps the memo-free default, so it is excluded.
TEST_P(QueueBatchTest, MemoizingQueuesSkipRepeatProbes) {
  if (GetParam() == QueueKind::kNaive) GTEST_SKIP() << "memo-free strawman";
  auto queue = make_queue(GetParam());
  SchedulingPlan plan;
  plan.append_step(100, 4);
  plan.simulated_makespan = 100;
  plans_.push_back(std::move(plan));
  for (std::uint32_t id : {1u, 2u, 3u}) {
    queue->insert(id, ProgressTracker(&plans_.front(), 100));
  }
  std::uint32_t probes = 0;
  const auto reject_all = [&](std::uint32_t) {
    ++probes;
    return false;
  };
  const auto noop = [](std::uint32_t) {};
  EXPECT_EQ(queue->assign_batch(0, 0, 2, reject_all, noop), 0u);
  EXPECT_EQ(probes, 3u);  // every workflow probed once
  EXPECT_EQ(queue->assign_batch(0, 0, 2, reject_all, noop), 0u);
  EXPECT_EQ(probes, 3u);  // all rejections memoized: no re-probe
  queue->note_can_use_changed(2);
  EXPECT_EQ(queue->assign_batch(0, 0, 2, reject_all, noop), 0u);
  EXPECT_EQ(probes, 4u);  // only the announced workflow re-probed
  queue->invalidate_probe_memo();
  EXPECT_EQ(queue->assign_batch(0, 0, 2, reject_all, noop), 0u);
  EXPECT_EQ(probes, 7u);  // full re-probe after invalidation
  ASSERT_NO_THROW(queue->check_structure());
}

INSTANTIATE_TEST_SUITE_P(Kinds, QueueBatchTest,
                         ::testing::Values(QueueKind::kDsl, QueueKind::kBst,
                                           QueueKind::kBstPlain, QueueKind::kNaive),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace woha::core
