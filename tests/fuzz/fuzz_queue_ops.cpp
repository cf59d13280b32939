// Indexed queue op-sequences (DSL, BST, BSTplain) vs the NaiveQueue
// reference.
//
// The input decodes to a monotone-clock op sequence — insert with a
// byte-derived plan, credit grants (announced via note_can_use_changed),
// assigns, removals, progress losses, ordering snapshots — applied
// identically to every indexed queue kind and the naive recompute-everything
// oracle. All Algorithm-2 implementations must pick the same workflows in
// the same order and expose the same priority ordering (ties break by id,
// so cross-implementation equality is well-defined). Each queue owns its
// credit copy, exactly like the engine's per-scheduler state.
//
// Mutant (WOHA_FUZZ_MUTANT=1): remove() skips the naive oracle, so its
// size and ordering drift — the next comparison must fail.
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler_queue.hpp"
#include "fuzz_util.hpp"

namespace {

using woha::core::ProgressTracker;
using woha::core::QueueKind;
using woha::core::SchedulerQueue;
using woha::core::SchedulingPlan;
using woha::SimTime;

constexpr std::uint32_t kMaxWorkflows = 8;
constexpr std::size_t kDomains = SchedulerQueue::kProbeDomains;

struct Twin {
  std::unique_ptr<SchedulerQueue> queue;
  // Per-workflow, per-domain assignable-task credits: the caller-side state
  // can_use() answers from, duplicated per queue like the engine does.
  std::array<std::array<std::uint64_t, kDomains>, kMaxWorkflows> credits{};

  [[nodiscard]] std::function<bool(std::uint32_t)> can_use(std::size_t domain) {
    return [this, domain](std::uint32_t id) {
      return id < kMaxWorkflows && credits[id][domain] > 0;
    };
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  woha::fuzz::ByteReader in(data, size);

  std::deque<SchedulingPlan> plans;  // must outlive the trackers
  // The indexed twins first; the naive oracle is always the last twin.
  std::array<Twin, 4> twins = {
      Twin{woha::core::make_queue(QueueKind::kDsl)},
      Twin{woha::core::make_queue(QueueKind::kBst)},
      Twin{woha::core::make_queue(QueueKind::kBstPlain)},
      Twin{woha::core::make_queue(QueueKind::kNaive)},
  };
  constexpr std::size_t kOracle = twins.size() - 1;
  std::array<bool, kMaxWorkflows> live{};
  std::array<std::uint64_t, kMaxWorkflows> assigned{};
  SimTime now = 0;

  const auto compare_all = [&] {
    const std::size_t expect = twins[kOracle].queue->size();
    std::vector<SchedulerQueue::QueueEntry> naive_top;
    twins[kOracle].queue->top(expect, naive_top);
    for (std::size_t t = 0; t < kOracle; ++t) {
      const std::string kind = twins[t].queue->name();
      WOHA_FUZZ_CHECK(twins[t].queue->size() == expect, kind + " size diverged");
      std::vector<SchedulerQueue::QueueEntry> top;
      twins[t].queue->top(expect, top);
      WOHA_FUZZ_CHECK(top.size() == naive_top.size(), "top length diverged");
      for (std::size_t i = 0; i < top.size(); ++i) {
        WOHA_FUZZ_CHECK(top[i].id == naive_top[i].id,
                        kind + " ordering diverged at position " + std::to_string(i));
        WOHA_FUZZ_CHECK(top[i].lag == naive_top[i].lag,
                        kind + " lag diverged for workflow " +
                            std::to_string(top[i].id));
      }
      twins[t].queue->check_structure();
    }
  };

  while (!in.done()) {
    switch (in.u8() % 8) {
      case 0: {  // insert a new workflow with a byte-derived plan
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        if (live[id]) break;
        SchedulingPlan plan;
        const std::uint32_t steps = 1 + in.u8() % 4;
        const std::int64_t base = 100 * (1 + in.u8() % 4);
        plan.reserve_steps(steps);
        for (std::uint32_t s = 0; s < steps; ++s) {
          // ttd strictly descending, cumulative requirement ascending.
          const std::int64_t ttd = base - (base / (steps + 1)) * s;
          plan.append_step(ttd, 1 + 2 * s + in.u8() % 3);
        }
        plan.simulated_makespan = plan.step_ttd(0);
        plans.push_back(std::move(plan));
        const SimTime deadline = now + 50 + 10 * (in.u8() % 40);
        for (Twin& t : twins) {
          t.queue->insert(id, ProgressTracker(&plans.back(), deadline));
          t.credits[id] = {};
        }
        live[id] = true;
        assigned[id] = 0;
        break;
      }
      case 1: {  // grant credits; announce the false -> true flip
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        const std::size_t domain = in.u8() % kDomains;
        const std::uint64_t n = 1 + in.u8() % 3;
        for (Twin& t : twins) {
          t.credits[id][domain] += n;
          t.queue->note_can_use_changed(id);
        }
        break;
      }
      case 2: {  // assign: all implementations must pick identically
        const std::size_t domain = in.u8() % kDomains;
        std::array<std::uint32_t, twins.size()> picks{};
        for (std::size_t t = 0; t < twins.size(); ++t) {
          picks[t] = twins[t].queue->assign(now, twins[t].can_use(domain));
        }
        const std::uint32_t pick = picks[kOracle];
        for (std::size_t t = 0; t < kOracle; ++t) {
          WOHA_FUZZ_CHECK(picks[t] == pick,
                          twins[t].queue->name() + " pick diverged from naive");
        }
        if (pick != SchedulerQueue::kNone) {
          for (Twin& t : twins) {
            WOHA_FUZZ_CHECK(t.credits[pick][domain] > 0,
                            "picked workflow without credits");
            --t.credits[pick][domain];
          }
          ++assigned[pick];
        }
        break;
      }
      case 3: {  // remove a finished workflow
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        if (!live[id]) break;
        for (std::size_t t = 0; t < twins.size(); ++t) {
          // Mutant: the naive oracle keeps the workflow — sizes and
          // orderings must be caught diverging by the next comparison.
          if (woha::fuzz::mutant() && t == kOracle) continue;
          twins[t].queue->remove(id);
        }
        live[id] = false;
        break;
      }
      case 4: {  // progress regression (tracker crash returning tasks)
        const std::uint32_t id = in.u8() % kMaxWorkflows;
        const std::uint64_t lost =
            std::min<std::uint64_t>(1 + in.u8() % 2, assigned[id]);
        if (!live[id] || lost == 0) break;
        for (Twin& t : twins) t.queue->on_progress_lost(id, lost);
        assigned[id] -= lost;
        break;
      }
      case 5:  // advance the monotone clock
        now += 1 + in.u8();
        break;
      case 6:
        compare_all();
        break;
      case 7:
        for (Twin& t : twins) t.queue->invalidate_probe_memo();
        break;
    }
  }

  compare_all();
  return 0;
}
