// Parameterized over every QueueKind: all must implement Algorithm 2
// identically; DSL/BST/BSTplain/naive only differ in cost.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/queue_naive.hpp"
#include "core/scheduler_queue.hpp"

namespace woha::core {
namespace {

constexpr auto kAll = [](std::uint32_t) { return true; };

class QueueTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  std::unique_ptr<SchedulerQueue> queue_ = make_queue(GetParam());
  // Plans must outlive ProgressTrackers; deque keeps addresses stable.
  std::deque<SchedulingPlan> plans_;

  /// Register a workflow whose requirement steps are given as (ttd, cum).
  void add(std::uint32_t id, SimTime deadline,
           std::vector<std::pair<Duration, std::uint64_t>> steps) {
    SchedulingPlan plan;
    plan.reserve_steps(steps.size());
    for (const auto& [ttd, cum] : steps) plan.append_step(ttd, cum);
    plan.simulated_makespan = steps.empty() ? 0 : steps.front().first;
    plans_.push_back(std::move(plan));
    queue_->insert(id, ProgressTracker(&plans_.back(), deadline));
  }
};

TEST_P(QueueTest, EmptyQueueReturnsNone) {
  EXPECT_EQ(queue_->assign(0, kAll), SchedulerQueue::kNone);
  EXPECT_EQ(queue_->size(), 0u);
}

TEST_P(QueueTest, MostLaggingWorkflowWins) {
  // At t=0 (deadline 100): wf 1 requires 5 tasks, wf 2 requires 2.
  add(1, 100, {{100, 5}});
  add(2, 100, {{100, 2}});
  EXPECT_EQ(queue_->assign(0, kAll), 1u);
}

TEST_P(QueueTest, RhoReducesPriorityAfterEachAssignment) {
  add(1, 100, {{100, 3}});
  add(2, 100, {{100, 2}});
  // lags: wf1=3, wf2=2 -> serve 1 (lag 2), tie with 2 -> smaller id wins,
  // serve 1 (lag 1), then 2 (lag 2)... full sequence:
  std::vector<std::uint32_t> sequence;
  for (int i = 0; i < 5; ++i) sequence.push_back(queue_->assign(0, kAll));
  EXPECT_EQ(sequence, (std::vector<std::uint32_t>{1, 1, 2, 1, 2}));
}

TEST_P(QueueTest, RequirementChangeReordersOverTime) {
  // wf 1: requires 1 task from t=0 (ttd=100 at deadline 100).
  // wf 2: requires 10 tasks from t=50 (ttd=50).
  add(1, 100, {{100, 1}});
  add(2, 100, {{50, 10}});
  EXPECT_EQ(queue_->assign(0, kAll), 1u);   // wf2 requirement not fired yet
  EXPECT_EQ(queue_->assign(49, kAll), 1u);  // still lag(1)=0 > lag(2)=0? ...
  // At t=50, wf2's requirement fires: lag jumps to 10.
  EXPECT_EQ(queue_->assign(50, kAll), 2u);
}

TEST_P(QueueTest, CanUseFilterSkipsToNextWorkflow) {
  add(1, 100, {{100, 9}});
  add(2, 100, {{100, 4}});
  add(3, 100, {{100, 6}});
  const auto not_1 = [](std::uint32_t id) { return id != 1; };
  EXPECT_EQ(queue_->assign(0, not_1), 3u);  // 1 is most lagging but unusable
  const auto none = [](std::uint32_t) { return false; };
  EXPECT_EQ(queue_->assign(0, none), SchedulerQueue::kNone);
}

TEST_P(QueueTest, AssignRejectionDoesNotChangeState) {
  add(1, 100, {{100, 5}});
  const auto none = [](std::uint32_t) { return false; };
  EXPECT_EQ(queue_->assign(0, none), SchedulerQueue::kNone);
  // rho must not have been bumped by the rejected pass.
  EXPECT_EQ(queue_->assign(0, kAll), 1u);
  EXPECT_EQ(queue_->assign(0, kAll), 1u);  // lag was 5, still winning
}

TEST_P(QueueTest, RemoveWorkflow) {
  add(1, 100, {{100, 5}});
  add(2, 100, {{100, 1}});
  queue_->remove(1);
  EXPECT_EQ(queue_->size(), 1u);
  EXPECT_EQ(queue_->assign(0, kAll), 2u);
  queue_->remove(99);  // absent: no-op
  EXPECT_EQ(queue_->size(), 1u);
}

TEST_P(QueueTest, NoDeadlineWorkflowActsAsBackground) {
  add(1, kTimeInfinity, {{100, 50}});  // no deadline: requirement never fires
  add(2, 100, {{100, 1}});
  EXPECT_EQ(queue_->assign(0, kAll), 2u);  // deadline-bearing workflow first
  // Once wf2 is ahead of its requirement (lag < 0 after 2 assignments),
  // the background workflow (lag 0 - rho) competes normally.
  EXPECT_EQ(queue_->assign(0, kAll), 1u);  // wf2 lag=-1, wf1 lag=0
}

TEST_P(QueueTest, MultipleStepsFireInOneGap) {
  // Steps at t=10,20,30 (deadline 100; ttds 90,80,70) all fired by t=35.
  add(1, 100, {{90, 1}, {80, 3}, {70, 7}});
  add(2, 100, {{100, 5}});
  EXPECT_EQ(queue_->assign(35, kAll), 1u);  // lag 7 beats 5 (walked 3 steps)
}

TEST_P(QueueTest, ProgressLossRestoresPriority) {
  add(1, 100, {{100, 3}});
  add(2, 100, {{100, 2}});
  EXPECT_EQ(queue_->assign(0, kAll), 1u);  // lags 3 vs 2
  EXPECT_EQ(queue_->assign(0, kAll), 1u);  // tie at 2, smaller id wins
  // Without the loss the next winner would be wf2 (lag 1 vs 2). A crash
  // undoes both of wf1's scheduled tasks: its lag climbs back to 3.
  queue_->on_progress_lost(1, 2);
  EXPECT_EQ(queue_->assign(0, kAll), 1u);
}

TEST_P(QueueTest, ProgressLossClampsAtZeroAndIgnoresAbsentIds) {
  add(1, 100, {{100, 1}});
  EXPECT_EQ(queue_->assign(0, kAll), 1u);
  queue_->on_progress_lost(1, 50);  // more than ever scheduled: rho clamps at 0
  EXPECT_EQ(queue_->assign(0, kAll), 1u);  // lag is 1 again, not negative junk
  queue_->on_progress_lost(99, 3);  // absent workflow: no-op, no throw
  EXPECT_EQ(queue_->size(), 1u);
}

TEST_P(QueueTest, DuplicateInsertThrows) {
  add(1, 100, {{100, 1}});
  SchedulingPlan plan;
  plans_.push_back(plan);
  EXPECT_THROW(queue_->insert(1, ProgressTracker(&plans_.back(), 100)),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Kinds, QueueTest,
                         ::testing::Values(QueueKind::kDsl, QueueKind::kBst,
                                           QueueKind::kBstPlain, QueueKind::kNaive),
                         [](const auto& info) { return to_string(info.param); });

class QueueEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueEquivalence, AllThreeImplementationsAgree) {
  Rng rng(GetParam());
  const int n_workflows = static_cast<int>(rng.uniform_int(2, 30));

  // Build one shared set of plans.
  std::deque<SchedulingPlan> plans;
  std::vector<SimTime> deadlines;
  for (int w = 0; w < n_workflows; ++w) {
    SchedulingPlan plan;
    const int n_steps = static_cast<int>(rng.uniform_int(1, 8));
    Duration ttd = rng.uniform_int(50, 400);
    std::uint64_t cum = 0;
    for (int s = 0; s < n_steps; ++s) {
      cum += static_cast<std::uint64_t>(rng.uniform_int(1, 9));
      plan.append_step(ttd, cum);
      ttd -= rng.uniform_int(5, 40);
      if (ttd <= 0) break;
    }
    plan.simulated_makespan = plan.step_ttd(0);
    plans.push_back(std::move(plan));
    deadlines.push_back(rng.uniform_int(100, 500));
  }

  auto dsl = make_queue(QueueKind::kDsl);
  auto bst = make_queue(QueueKind::kBst);
  auto bst_plain = make_queue(QueueKind::kBstPlain);
  auto naive = make_queue(QueueKind::kNaive);
  for (int w = 0; w < n_workflows; ++w) {
    for (auto* q : {dsl.get(), bst.get(), bst_plain.get(), naive.get()}) {
      q->insert(static_cast<std::uint32_t>(w),
                ProgressTracker(&plans[static_cast<std::size_t>(w)],
                                deadlines[static_cast<std::size_t>(w)]));
    }
  }

  // Drive all three with the same monotone clock and can_use pattern.
  SimTime now = 0;
  for (int call = 0; call < 300; ++call) {
    now += rng.uniform_int(0, 10);
    // Deterministic pseudo-random availability per (call, id).
    const std::uint64_t salt = rng.next();
    const auto can_use = [salt](std::uint32_t id) {
      std::uint64_t h = salt ^ (id * 0x9e3779b97f4a7c15ull);
      h ^= h >> 33;
      return (h & 7) != 0;  // ~87.5% available
    };
    const auto a = dsl->assign(now, can_use);
    const auto b = bst->assign(now, can_use);
    const auto b2 = bst_plain->assign(now, can_use);
    const auto c = naive->assign(now, can_use);
    ASSERT_EQ(a, b) << "call " << call << " now " << now;
    ASSERT_EQ(a, b2) << "call " << call << " now " << now;
    ASSERT_EQ(a, c) << "call " << call << " now " << now;
    // Occasionally lose the task again (simulated tracker crash); all
    // implementations must regress rho identically.
    if (a != SchedulerQueue::kNone && (salt & 1) != 0) {
      for (auto* q : {dsl.get(), bst.get(), bst_plain.get(), naive.get()}) {
        q->on_progress_lost(a, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

// Adversarial equal-lag workload: every workflow shares the same plan and
// deadline, so lags tie at every instant and the whole ordering rests on the
// (-lag, id) tie-break. The random fuzz above almost never produces ties;
// this test makes them the common case and checks full head orderings (not
// just the winner) across all four implementations, through assignments,
// progress losses (which recreate ties) and mid-run remove/reinsert (which
// exercises the duplicate-key insertion paths the skip list / std::map would
// otherwise fail silently on).
TEST(QueueEquivalence, EqualLagTieBreakIsIdenticalAcrossImplementations) {
  constexpr std::uint32_t kWorkflows = 12;
  // One step per 40 ticks so requirement changes keep firing; all workflows
  // change at the same instants (another source of same-key stress in the
  // ct structures).
  SchedulingPlan plan;
  for (Duration ttd = 400; ttd > 0; ttd -= 40) {
    plan.append_step(ttd, static_cast<std::uint64_t>((400 - ttd) / 40 + 1));
  }
  plan.simulated_makespan = plan.step_ttd(0);
  constexpr SimTime kDeadline = 400;

  auto dsl = make_queue(QueueKind::kDsl);
  auto bst = make_queue(QueueKind::kBst);
  auto bst_plain = make_queue(QueueKind::kBstPlain);
  auto naive = make_queue(QueueKind::kNaive);
  const auto all = {dsl.get(), bst.get(), bst_plain.get(), naive.get()};
  for (std::uint32_t w = 0; w < kWorkflows; ++w) {
    for (auto* q : all) q->insert(w, ProgressTracker(&plan, kDeadline));
  }

  const auto expect_same_ordering = [&](SimTime now) {
    std::vector<SchedulerQueue::QueueEntry> ref;
    dsl->top(kWorkflows, ref);
    for (auto* q : {bst.get(), bst_plain.get(), naive.get()}) {
      std::vector<SchedulerQueue::QueueEntry> got;
      q->top(kWorkflows, got);
      ASSERT_EQ(got.size(), ref.size()) << q->name() << " at t=" << now;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i].id, ref[i].id)
            << q->name() << " head position " << i << " at t=" << now;
        ASSERT_EQ(got[i].lag, ref[i].lag)
            << q->name() << " head position " << i << " at t=" << now;
      }
    }
  };

  Rng rng(7);
  SimTime now = 0;
  for (int call = 0; call < 400; ++call) {
    now += rng.uniform_int(0, 6);
    const std::uint64_t salt = rng.next();
    const auto can_use = [salt](std::uint32_t id) {
      std::uint64_t h = salt ^ (id * 0x9e3779b97f4a7c15ull);
      h ^= h >> 33;
      return (h & 3) != 0;
    };
    const auto winner = dsl->assign(now, can_use);
    for (auto* q : {bst.get(), bst_plain.get(), naive.get()}) {
      ASSERT_EQ(q->assign(now, can_use), winner)
          << q->name() << " call " << call << " t=" << now;
    }
    // Losses in bursts: several workflows collapse back onto the same lag.
    if (winner != SchedulerQueue::kNone && (salt & 7) == 0) {
      const std::uint32_t other = (winner + 1) % kWorkflows;
      for (auto* q : all) {
        q->on_progress_lost(winner, 2);
        q->on_progress_lost(other, 2);
      }
    }
    // Churn a workflow id through remove + reinsert: the fresh tracker ties
    // with the survivors (same plan, rho=0) and must slot back into the
    // exact same ordering position everywhere.
    if ((salt & 31) == 1) {
      const std::uint32_t victim = static_cast<std::uint32_t>(salt >> 8) % kWorkflows;
      for (auto* q : all) {
        q->remove(victim);
        q->insert(victim, ProgressTracker(&plan, kDeadline));
      }
    }
    expect_same_ordering(now);
  }
}

}  // namespace
}  // namespace woha::core
