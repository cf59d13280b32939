// Fig. 13(a) — Scheduler throughput (AssignTask calls per second) vs.
// workflow queue length, for the four queue kinds:
//
//   DSL      — Double Skip List (the paper's contribution): O(1) head ops,
//   BST      — two arena AVL trees (FlatTree) with a cached leftmost node:
//              O(1) head access, O(log n) head deletion,
//   BSTplain — the same trees paying a root-to-leftmost descent on every
//              head access (the paper's textbook balanced BST),
//   Naive    — recompute every lag and re-sort per call: O(n log n).
//
// DSL, BST and BSTplain run the same IndexedQueue code; only the ordering
// structure differs.
//
// The paper shows the naive scheduler collapsing (< 2 calls/s) at 10^4
// queued workflows while DSL sustains high throughput beyond 10^5.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <deque>
#include <memory>

#include "core/job_priority.hpp"
#include "core/resource_cap.hpp"
#include "core/scheduler_queue.hpp"
#include "trace/paper_workloads.hpp"

using namespace woha;

namespace {

/// One realistic plan shared by all queued workflows (trackers are
/// per-workflow; the plan itself is read-only).
const core::SchedulingPlan& shared_plan() {
  static const core::SchedulingPlan plan = [] {
    const auto workflows = trace::fig8_trace(7);
    const auto& spec = workflows.front();
    const auto rank = core::job_priority_ranks(spec, core::JobPriorityPolicy::kHlf);
    return core::plan_for_submission(spec, rank, 480, core::CapPolicy::kMinFeasible);
  }();
  return plan;
}

std::unique_ptr<core::SchedulerQueue> build_queue(core::QueueKind kind,
                                                  std::int64_t n) {
  auto queue = core::make_queue(kind);
  const auto& plan = shared_plan();
  for (std::int64_t w = 0; w < n; ++w) {
    // Stagger deadlines so ct events spread over time like a live cluster.
    const SimTime deadline = plan.simulated_makespan + (w % 1024) * 977 + 10'000;
    queue->insert(static_cast<std::uint32_t>(w),
                  core::ProgressTracker(&plan, deadline));
  }
  return queue;
}

void run_assign_benchmark(benchmark::State& state, core::QueueKind kind) {
  const std::int64_t n = state.range(0);
  auto queue = build_queue(kind, n);
  const auto all = [](std::uint32_t) { return true; };
  SimTime now = 0;
  for (auto _ : state) {
    now += 3;  // ~ a slot free-up every 3 ms (paper Sec. IV-B)
    benchmark::DoNotOptimize(queue->assign(now, all));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["queue_len"] = static_cast<double>(n);
}

void BM_AssignTask_DSL(benchmark::State& state) {
  run_assign_benchmark(state, core::QueueKind::kDsl);
}
void BM_AssignTask_BST(benchmark::State& state) {
  run_assign_benchmark(state, core::QueueKind::kBst);
}
void BM_AssignTask_BSTplain(benchmark::State& state) {
  run_assign_benchmark(state, core::QueueKind::kBstPlain);
}
void BM_AssignTask_Naive(benchmark::State& state) {
  run_assign_benchmark(state, core::QueueKind::kNaive);
}

}  // namespace

BENCHMARK(BM_AssignTask_DSL)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(100'000)->Arg(300'000);
BENCHMARK(BM_AssignTask_BST)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(100'000)->Arg(300'000);
BENCHMARK(BM_AssignTask_BSTplain)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(100'000)->Arg(300'000);
// The naive queue at 10^5 takes minutes per handful of calls; cap at 3*10^4
// (the collapse is already unmistakable at 10^4, matching the paper).
BENCHMARK(BM_AssignTask_Naive)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(30'000)
    ->Iterations(50);

// Explicit main (instead of BENCHMARK_MAIN) so --metrics-json can be
// stripped before benchmark::Initialize rejects it as an unknown flag. The
// queue benchmarks run no Engine, so the snapshot is an empty registry.
int main(int argc, char** argv) {
  bench::MetricsSession metrics_session(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
