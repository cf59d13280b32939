// End-to-end tests of the WOHA progress-based scheduler on the engine,
// including the paper's Fig. 2 claim: min-feasible resource caps save
// deadlines the full-cluster ("lazy") plans lose.
#include "core/woha_scheduler.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "hadoop/engine.hpp"
#include "trace/paper_workloads.hpp"
#include "workflow/topology.hpp"

namespace woha::core {
namespace {

hadoop::EngineConfig fig2_cluster() {
  hadoop::EngineConfig config;
  // 3 map slots + 3 reduce slots, as in the paper's Fig. 2.
  config.cluster.num_trackers = 3;
  config.cluster.map_slots_per_tracker = 1;
  config.cluster.reduce_slots_per_tracker = 1;
  // Keep framework overheads tiny relative to the 1-minute task unit so the
  // example's arithmetic carries over.
  config.cluster.heartbeat_period = seconds(1);
  config.activation_latency = ms(500);
  return config;
}

hadoop::RunSummary run_fig2(CapPolicy policy) {
  WohaConfig wc;
  wc.cap_policy = policy;
  wc.job_priority = JobPriorityPolicy::kLpf;
  hadoop::Engine engine(fig2_cluster(), std::make_unique<WohaScheduler>(wc));
  for (const auto& spec : trace::fig2_scenario(minutes(1))) engine.submit(spec);
  engine.run();
  return engine.summarize();
}

TEST(WohaScheduler, Fig2MinFeasibleCapMeetsAllDeadlines) {
  const auto summary = run_fig2(CapPolicy::kMinFeasible);
  ASSERT_EQ(summary.workflows.size(), 3u);
  for (const auto& wf : summary.workflows) {
    EXPECT_TRUE(wf.met_deadline) << wf.name << " tardiness "
                                 << wf.tardiness;
  }
  EXPECT_DOUBLE_EQ(summary.deadline_miss_ratio, 0.0);
}

TEST(WohaScheduler, Fig2FullClusterCapMissesADeadline) {
  // Lazy plans make W1/W2 idle-equivalent for 5 minutes; by the time their
  // requirements fire both need the whole cluster -> at least one misses
  // (paper Fig. 2(a)).
  const auto summary = run_fig2(CapPolicy::kFullCluster);
  EXPECT_GT(summary.deadline_miss_ratio, 0.0);
}

TEST(WohaScheduler, GeneratesPlanPerWorkflow) {
  WohaConfig wc;
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  auto scheduler = std::make_unique<WohaScheduler>(wc);
  WohaScheduler* raw = scheduler.get();
  hadoop::Engine engine(config, std::move(scheduler));
  for (const auto& spec : trace::fig11_scenario()) engine.submit(spec);
  engine.run();

  for (std::uint32_t w = 0; w < 3; ++w) {
    const SchedulingPlan* plan = raw->plan_of(WorkflowId(w));
    ASSERT_NE(plan, nullptr);
    EXPECT_GT(plan->num_steps(), 0u);
    EXPECT_EQ(plan->total_tasks(), wf::paper_fig7_topology().total_tasks());
    EXPECT_GE(plan->resource_cap, 1u);
    EXPECT_LE(plan->resource_cap, config.cluster.total_slots());
  }
}

TEST(WohaScheduler, AllTasksExecuteExactlyOnce) {
  WohaConfig wc;
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  hadoop::Engine engine(config, std::make_unique<WohaScheduler>(wc));
  std::uint64_t expected = 0;
  for (const auto& spec : trace::fig11_scenario()) {
    expected += spec.total_tasks();
    engine.submit(spec);
  }
  engine.run();
  EXPECT_EQ(engine.summarize().tasks_executed, expected);
}

TEST(WohaScheduler, NameReflectsPolicy) {
  WohaConfig wc;
  wc.job_priority = JobPriorityPolicy::kMpf;
  WohaScheduler scheduler(wc);
  EXPECT_EQ(scheduler.name(), "WOHA-MPF");
}

constexpr QueueKind kEveryQueueKind[] = {QueueKind::kDsl, QueueKind::kBst,
                                         QueueKind::kBstPlain, QueueKind::kNaive};

TEST(WohaScheduler, WorksWithEveryQueueKind) {
  for (const QueueKind kind : kEveryQueueKind) {
    WohaConfig wc;
    wc.queue = kind;
    hadoop::Engine engine(fig2_cluster(), std::make_unique<WohaScheduler>(wc));
    for (const auto& spec : trace::fig2_scenario(minutes(1))) engine.submit(spec);
    engine.run();
    EXPECT_DOUBLE_EQ(engine.summarize().deadline_miss_ratio, 0.0)
        << to_string(kind);
  }
}

TEST(WohaScheduler, QueueKindsProduceIdenticalSchedules) {
  // Not just "all meet deadlines": the exact finish times must agree, since
  // every queue kind implements the same algorithm.
  constexpr std::size_t kKinds = std::size(kEveryQueueKind);
  SimTime finishes[kKinds][3];
  std::size_t k = 0;
  for (const QueueKind kind : kEveryQueueKind) {
    WohaConfig wc;
    wc.queue = kind;
    hadoop::EngineConfig config;
    config.cluster = hadoop::ClusterConfig::paper_32_slaves();
    hadoop::Engine engine(config, std::make_unique<WohaScheduler>(wc));
    for (const auto& spec : trace::fig11_scenario()) engine.submit(spec);
    engine.run();
    const auto summary = engine.summarize();
    for (int w = 0; w < 3; ++w) {
      finishes[k][w] = summary.workflows[static_cast<std::size_t>(w)].finish_time;
    }
    ++k;
  }
  for (std::size_t other = 1; other < kKinds; ++other) {
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(finishes[0][w], finishes[other][w])
          << to_string(kEveryQueueKind[other]) << " workflow " << w;
    }
  }
}

TEST(WohaScheduler, HandlesWorkflowWithoutDeadline) {
  auto spec = wf::paper_fig7_topology();
  spec.relative_deadline = 0;  // none
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  hadoop::Engine engine(config, std::make_unique<WohaScheduler>());
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_DOUBLE_EQ(summary.deadline_miss_ratio, 0.0);
}

TEST(WohaScheduler, ThrowsWithoutClusterInfo) {
  // Calling the client path without the slot-count query must fail loudly.
  WohaScheduler scheduler;
  hadoop::JobTracker jt;
  scheduler.attach(&jt);
  jt.add_workflow(wf::chain(1), 0);
  EXPECT_THROW(scheduler.on_workflow_submitted(WorkflowId(0), 0), std::logic_error);
}

}  // namespace
}  // namespace woha::core
