#include "hadoop/engine.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sched/fifo_scheduler.hpp"
#include "workflow/topology.hpp"

namespace woha::hadoop {
namespace {

EngineConfig small_cluster() {
  EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.activation_latency = seconds(1);
  return config;
}

wf::WorkflowSpec single_job(std::uint32_t maps, std::uint32_t reduces) {
  wf::WorkflowSpec spec;
  spec.name = "single";
  wf::JobSpec job;
  job.name = "only";
  job.num_maps = maps;
  job.num_reduces = reduces;
  job.map_duration = seconds(10);
  job.reduce_duration = seconds(20);
  spec.jobs.push_back(job);
  return spec;
}

TEST(Engine, RunsSingleJobToCompletion) {
  Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(4, 2));
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_EQ(summary.workflows.size(), 1u);
  EXPECT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_EQ(summary.tasks_executed, 6u);
  // Timing: 1s activation + <=1s heartbeat wait + 10s maps (one wave: 8
  // slots >= 4 maps) + <=1s heartbeat + 20s reduces. Bounds, not equality,
  // because of heartbeat staggering.
  EXPECT_GE(summary.workflows[0].workspan, seconds(31));
  EXPECT_LE(summary.workflows[0].workspan, seconds(35));
}

TEST(Engine, DeterministicAcrossRuns) {
  SimTime first = -1;
  for (int run = 0; run < 2; ++run) {
    Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());
    engine.submit(wf::paper_fig7_topology());
    engine.run();
    const auto summary = engine.summarize();
    if (first < 0) {
      first = summary.workflows[0].finish_time;
    } else {
      EXPECT_EQ(summary.workflows[0].finish_time, first);
    }
  }
}

TEST(Engine, RespectsJobDependencies) {
  // chain: job 1 must not start a task before job 0 finished.
  auto spec = wf::chain(3);
  for (auto& job : spec.jobs) {
    job.num_maps = 2;
    job.num_reduces = 1;
    job.map_duration = seconds(5);
    job.reduce_duration = seconds(5);
  }
  Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());

  std::map<std::uint32_t, SimTime> first_start, last_finish;
  engine.set_task_observer([&](const TaskEvent& e) {
    if (e.started) {
      if (!first_start.count(e.job.job)) first_start[e.job.job] = e.time;
    } else {
      last_finish[e.job.job] = e.time;
    }
  });
  engine.submit(spec);
  engine.run();

  ASSERT_EQ(first_start.size(), 3u);
  EXPECT_GE(first_start[1], last_finish[0]);
  EXPECT_GE(first_start[2], last_finish[1]);
}

TEST(Engine, NeverExceedsSlotCapacity) {
  auto config = small_cluster();
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  std::int64_t running[2] = {0, 0};
  const std::int64_t caps[2] = {config.cluster.total_map_slots(),
                                config.cluster.total_reduce_slots()};
  engine.set_task_observer([&](const TaskEvent& e) {
    auto& r = running[static_cast<std::size_t>(e.slot)];
    r += e.started ? 1 : -1;
    ASSERT_GE(r, 0);
    ASSERT_LE(r, caps[static_cast<std::size_t>(e.slot)]);
  });
  // Submit more work than fits: three wide workflows.
  for (int i = 0; i < 3; ++i) {
    auto spec = single_job(30, 10);
    spec.name = "wide-" + std::to_string(i);
    engine.submit(spec);
  }
  engine.run();
  EXPECT_EQ(engine.summarize().tasks_executed, 3u * 40u);
}

TEST(Engine, ActivationLatencyDelaysFirstTask) {
  auto config = small_cluster();
  config.activation_latency = seconds(30);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  SimTime first_task = -1;
  engine.set_task_observer([&](const TaskEvent& e) {
    if (e.started && first_task < 0) first_task = e.time;
  });
  engine.submit(single_job(1, 0));
  engine.run();
  EXPECT_GE(first_task, seconds(30));
}

TEST(Engine, DurationScaleStretchesRuntime) {
  auto base = small_cluster();
  Engine normal(base, std::make_unique<sched::FifoScheduler>());
  normal.submit(single_job(2, 1));
  normal.run();

  auto slow_config = base;
  slow_config.duration_scale = 2.0;
  Engine slow(slow_config, std::make_unique<sched::FifoScheduler>());
  slow.submit(single_job(2, 1));
  slow.run();

  EXPECT_GT(slow.summarize().workflows[0].workspan,
            normal.summarize().workflows[0].workspan);
}

TEST(Engine, JitterKeepsDeterminismPerSeed) {
  auto config = small_cluster();
  config.duration_jitter_sigma = 0.3;
  config.seed = 7;
  SimTime finish[2];
  for (int i = 0; i < 2; ++i) {
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    engine.submit(single_job(8, 3));
    engine.run();
    finish[i] = engine.summarize().workflows[0].finish_time;
  }
  EXPECT_EQ(finish[0], finish[1]);

  config.seed = 8;
  Engine other(config, std::make_unique<sched::FifoScheduler>());
  other.submit(single_job(8, 3));
  other.run();
  EXPECT_NE(other.summarize().workflows[0].finish_time, finish[0]);
}

TEST(Engine, DeadlineAccounting) {
  auto spec = single_job(2, 1);
  spec.relative_deadline = hours(1);  // loose: met
  Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());
  engine.submit(spec);

  auto tight = single_job(2, 1);
  tight.name = "tight";
  tight.relative_deadline = seconds(5);  // impossible: 30s of serial work
  engine.submit(tight);

  engine.run();
  const auto summary = engine.summarize();
  EXPECT_DOUBLE_EQ(summary.deadline_miss_ratio, 0.5);
  EXPECT_GT(summary.max_tardiness, 0);
  EXPECT_EQ(summary.total_tardiness, summary.max_tardiness);  // one miss
}

TEST(Engine, HorizonLeavesWorkflowUnfinished) {
  auto config = small_cluster();
  config.horizon = seconds(5);  // far less than the ~31s needed
  auto spec = single_job(2, 1);
  spec.relative_deadline = seconds(4);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_LT(summary.workflows[0].finish_time, 0);
  EXPECT_FALSE(summary.workflows[0].met_deadline);
  EXPECT_DOUBLE_EQ(summary.deadline_miss_ratio, 1.0);
}

TEST(Engine, UtilizationWithinBounds) {
  Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(16, 4));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.map_slot_utilization, 0.0);
  EXPECT_LE(summary.map_slot_utilization, 1.0 + 1e-9);
  EXPECT_GT(summary.overall_utilization, 0.0);
  EXPECT_LE(summary.overall_utilization, 1.0 + 1e-9);
}

TEST(Engine, SubmitAfterRunThrows) {
  Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(1, 0));
  engine.run();
  EXPECT_THROW(engine.submit(single_job(1, 0)), std::logic_error);
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, RejectsNullSchedulerAndBadConfig) {
  EXPECT_THROW(Engine(small_cluster(), nullptr), std::invalid_argument);
  auto bad = small_cluster();
  bad.duration_scale = 0.0;
  EXPECT_THROW(Engine(bad, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
}

TEST(Engine, RejectsNonPositiveHeartbeatPeriodAtConstruction) {
  // Regression: this used to throw from run(), after submissions were
  // accepted — a misconfigured engine must fail before any work is queued.
  for (const Duration period : {Duration{0}, Duration{-seconds(1)}}) {
    auto bad = small_cluster();
    bad.cluster.heartbeat_period = period;
    EXPECT_THROW(Engine(bad, std::make_unique<sched::FifoScheduler>()),
                 std::invalid_argument)
        << "period=" << period;
  }
}

TEST(Engine, ParkedHeartbeatsProduceIdenticalSummaries) {
  // Heartbeat parking is a pure wall-clock optimisation: every observable
  // summary field must match the engine that serves every heartbeat.
  const auto run = [](bool park) {
    auto config = small_cluster();
    config.park_idle_heartbeats = park;
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    engine.submit(single_job(6, 3));
    engine.run();
    return engine.summarize();
  };
  const auto ref = run(false);
  const auto got = run(true);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.events_fired, ref.events_fired);
  EXPECT_EQ(got.select_calls, ref.select_calls);
  EXPECT_EQ(got.tasks_executed, ref.tasks_executed);
}

TEST(Engine, StaggeredSubmissionsRespectSubmitTimes) {
  auto a = single_job(2, 1);
  a.name = "early";
  a.submit_time = 0;
  auto b = single_job(2, 1);
  b.name = "late";
  b.submit_time = minutes(5);
  Engine engine(small_cluster(), std::make_unique<sched::FifoScheduler>());
  engine.submit(a);
  engine.submit(b);
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.workflows[1].submit_time, minutes(5));
  EXPECT_GT(summary.workflows[1].finish_time, minutes(5));
}

}  // namespace
}  // namespace woha::hadoop
