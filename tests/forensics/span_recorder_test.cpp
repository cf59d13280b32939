// SpanRecorder reconstruction tests against real engine runs: lifecycle
// stamps, spec capture, plan capture, kill causes, and the recorder's
// survive-the-engine lifetime contract.
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "core/woha_scheduler.hpp"
#include "forensics/span_recorder.hpp"
#include "hadoop/engine.hpp"
#include "workflow/topology.hpp"

namespace woha::forensics {
namespace {

wf::WorkflowSpec diamond_with_deadline(const std::string& name) {
  auto spec = wf::diamond(3);
  spec.name = name;
  spec.relative_deadline = minutes(45);
  return spec;
}

TEST(SpanRecorder, ReconstructsACleanRun) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());
  SpanRecorder recorder(engine.events(), &engine.job_tracker());

  engine.submit(diamond_with_deadline("clean"));
  engine.run();

  ASSERT_EQ(recorder.workflows().size(), 1u);
  const WorkflowSpan& w = recorder.workflows()[0];
  EXPECT_EQ(w.name, "clean");
  EXPECT_TRUE(w.completed);
  EXPECT_TRUE(w.met_deadline);
  EXPECT_EQ(w.status(), "completed");
  EXPECT_GE(w.submitted, 0);
  EXPECT_GT(w.finished, w.submitted);
  EXPECT_EQ(w.deadline, w.submitted + minutes(45));

  // Spec copied at submission: the DAG survives the run.
  ASSERT_EQ(w.spec.jobs.size(), w.jobs.size());
  EXPECT_EQ(w.jobs.size(), 5u);  // source + 3 middle + sink

  // WOHA published a plan for it.
  EXPECT_GT(w.plan_cap, 0u);
  EXPECT_GT(w.plan_makespan, 0);

  SimTime last_completed = -1;
  for (const JobSpan& job : w.jobs) {
    EXPECT_GE(job.activated, w.submitted);
    EXPECT_GE(job.completed, job.activated);
    EXPECT_FALSE(job.attempts.empty());
    last_completed = std::max(last_completed, job.completed);
  }
  EXPECT_EQ(last_completed, w.finished);

  ASSERT_EQ(w.attempts.size(), w.spec.total_tasks());
  for (const AttemptSpan& a : w.attempts) {
    EXPECT_GE(a.start, w.jobs[a.job].activated);
    EXPECT_GT(a.end, a.start);
    EXPECT_FALSE(a.killed);
    EXPECT_FALSE(a.failed);
    EXPECT_EQ(a.cause, obs::KillCause::kNone);
    EXPECT_EQ(a.ran_for, a.end - a.start);
  }
}

TEST(SpanRecorder, RecordsNodeLossKillCausesAndOutlivesTheEngine) {
  auto recorder = [] {
    hadoop::EngineConfig config;
    config.cluster.num_trackers = 4;
    config.cluster.map_slots_per_tracker = 2;
    config.cluster.reduce_slots_per_tracker = 1;
    config.faults.events = {{.tracker = 1,
                             .crash_time = minutes(2),
                             .restart_time = minutes(5)}};
    config.faults.expiry_interval = minutes(1);
    hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());
    auto rec =
        std::make_unique<SpanRecorder>(engine.events(), &engine.job_tracker());
    for (std::uint32_t i = 0; i < 3; ++i) {
      engine.submit(diamond_with_deadline("wf" + std::to_string(i)));
    }
    engine.run();
    return rec;
    // Engine (and its event bus) die here; the recorder must stay readable.
  }();

  ASSERT_EQ(recorder->workflows().size(), 3u);
  std::size_t node_loss_kills = 0;
  for (const WorkflowSpan& w : recorder->workflows()) {
    EXPECT_TRUE(w.completed);
    for (const AttemptSpan& a : w.attempts) {
      if (a.killed && a.cause == obs::KillCause::kNodeLoss) ++node_loss_kills;
      if (a.killed) {
        EXPECT_NE(a.cause, obs::KillCause::kNone);
      }
    }
  }
  // The minute-2 crash happens mid-flight with a 1-minute lease: some
  // attempts on tracker 1 must have been killed at detection.
  EXPECT_GT(node_loss_kills, 0u);
}

TEST(SpanRecorder, LinksSpeculativeBackupsToTheirOriginals) {
  // Heavy jitter + speculation: backups race stragglers, and each backup
  // span must point back at the original attempt it covered for.
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 6;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.seed = 42;
  config.duration_jitter_sigma = 0.5;
  config.faults.speculative_execution = true;
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());
  SpanRecorder recorder(engine.events(), &engine.job_tracker());

  for (std::uint32_t i = 0; i < 4; ++i) {
    engine.submit(diamond_with_deadline("wf" + std::to_string(i)));
  }
  engine.run();

  const auto summary = engine.summarize();
  ASSERT_GT(summary.speculative_launched, 0u)
      << "fixture must actually trigger speculation";

  std::size_t backups = 0;
  for (const WorkflowSpan& w : recorder.workflows()) {
    for (const AttemptSpan& a : w.attempts) {
      if (!a.speculative) continue;
      ++backups;
      EXPECT_NE(a.backs_up, 0u);
      // The original is an attempt of the same job, launched earlier.
      std::optional<AttemptSpan> original;
      for (const AttemptSpan& o : w.attempts) {
        if (o.id == a.backs_up) original = o;
      }
      ASSERT_TRUE(original.has_value());
      EXPECT_EQ(original->job, a.job);
      EXPECT_LT(original->id, a.id);
    }
  }
  EXPECT_EQ(backups, summary.speculative_launched);
}

TEST(SpanRecorder, RecordsShedWorkflowsAndRejections) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 2;
  config.cluster.map_slots_per_tracker = 1;
  config.cluster.reduce_slots_per_tracker = 1;
  config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 1;
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());
  SpanRecorder recorder(engine.events(), &engine.job_tracker());

  // Same submit time, tight budget of one pending workflow: the later
  // deadline is shed when the second submission lands.
  auto a = diamond_with_deadline("keep");
  auto b = diamond_with_deadline("shed-me");
  b.relative_deadline = minutes(90);
  engine.submit(a);
  engine.submit(b);
  engine.run();

  ASSERT_EQ(recorder.workflows().size(), 2u);
  std::size_t shed = 0;
  for (const WorkflowSpan& w : recorder.workflows()) {
    if (w.shed) {
      ++shed;
      EXPECT_EQ(w.status(), "shed");
      EXPECT_GE(w.terminated, w.submitted);
      EXPECT_FALSE(w.completed);
    }
  }
  EXPECT_EQ(shed, 1u);
}

}  // namespace
}  // namespace woha::forensics
