// Invariant auditor: clean runs pass silently, corrupted state throws an
// InvariantViolation whose structured dump names the broken invariant.
#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "audit/invariant_auditor.hpp"
#include "core/indexed_queue.hpp"
#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "workflow/topology.hpp"

namespace woha::core {

// Defined here, befriended by IndexedQueue: bump a tracker's rho without
// the repositioning every production mutation performs, leaving the cached
// pri_key stale — exactly the corruption check_structure exists for.
struct QueueTestPeer {
  template <class Ordering>
  static void desync_rho(IndexedQueue<Ordering>& queue, std::uint32_t id) {
    queue.arena_.tracker(queue.arena_.slot_of(id)).count_scheduled();
  }
};

}  // namespace woha::core

namespace woha::audit {
namespace {

hadoop::EngineConfig small_cluster() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 4;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.seed = 5;
  return config;
}

wf::WorkflowSpec deadline_chain(Duration relative_deadline = minutes(30)) {
  auto spec = wf::chain(3);
  spec.relative_deadline = relative_deadline;
  return spec;
}

std::unique_ptr<hadoop::WorkflowScheduler> make_woha() {
  return std::make_unique<core::WohaScheduler>();
}

TEST(InvariantAuditor, CleanRunPassesEveryCheck) {
  hadoop::Engine engine(small_cluster(), make_woha());
  AuditConfig audit_config;
  audit_config.full_sweep_period = 1;  // sweep on every heartbeat
  InvariantAuditor auditor(engine, audit_config);
  engine.submit(deadline_chain());
  ASSERT_NO_THROW(engine.run());
  ASSERT_NO_THROW(auditor.full_sweep());
  EXPECT_GT(auditor.events_seen(), 0u);
  EXPECT_GT(auditor.heartbeats_seen(), 0u);
  EXPECT_GT(auditor.sweeps_run(), 0u);
  EXPECT_FALSE(engine.summarize().workflows.empty());
}

TEST(InvariantAuditor, CleanChurnRunPassesEveryCheck) {
  // Crash + restart exercises the pooled/unpooled accounting, the
  // TrackerLost empty-node check, and the rho rollback path.
  auto config = small_cluster();
  config.faults.events.push_back({0, seconds(5), seconds(60)});
  config.faults.expiry_interval = seconds(10);
  hadoop::Engine engine(config, make_woha());
  AuditConfig audit_config;
  audit_config.full_sweep_period = 1;
  InvariantAuditor auditor(engine, audit_config);
  engine.submit(deadline_chain(hours(2)));
  ASSERT_NO_THROW(engine.run());
  ASSERT_NO_THROW(auditor.full_sweep());
  EXPECT_EQ(engine.summarize().tracker_crashes, 1u);
}

TEST(InvariantAuditor, EngineConfigFlagAttachesAndPreservesResults) {
  const std::vector<wf::WorkflowSpec> workload{deadline_chain()};
  const metrics::SchedulerEntry entry{"WOHA-LPF", make_woha};

  auto audited_config = small_cluster();
  audited_config.audit = true;
  const auto audited =
      metrics::run_experiment(audited_config, workload, entry);

  auto plain_config = small_cluster();
  plain_config.audit = false;
  const auto plain = metrics::run_experiment(plain_config, workload, entry);

  // Auditing must be purely observational: identical outcomes either way.
  EXPECT_EQ(audited.summary.makespan, plain.summary.makespan);
  EXPECT_EQ(audited.summary.tasks_executed, plain.summary.tasks_executed);
  ASSERT_EQ(audited.summary.workflows.size(), plain.summary.workflows.size());
  EXPECT_EQ(audited.summary.workflows[0].finish_time,
            plain.summary.workflows[0].finish_time);
}

TEST(InvariantAuditor, SlotCorruptionThrowsStructuredViolation) {
  hadoop::Engine engine(small_cluster(), make_woha());
  // The corruptor subscribes BEFORE the auditor, so on the TaskStarted where
  // it fires the auditor's per-tracker check runs against the already-
  // corrupted cluster. (Corrupting on HeartbeatServed would instead trip the
  // earlier heartbeat-free-slots payload check.)
  bool corrupted = false;
  engine.events().subscribe([&](const obs::Event& event) {
    if (corrupted) return;
    const auto* started = std::get_if<obs::TaskStarted>(&event.payload);
    if (started == nullptr) return;
    if (engine.cluster().tracker(started->tracker).free_slots(SlotType::kMap) == 0) {
      return;
    }
    // Occupy a slot behind the auditor's back: no TaskStarted will ever
    // account for it, so free + running != capacity on this tracker.
    engine.cluster_for_test().occupy(started->tracker, SlotType::kMap);
    corrupted = true;
  });
  AuditConfig audit_config;
  audit_config.full_sweep_period = 1;
  InvariantAuditor auditor(engine, audit_config);
  engine.submit(deadline_chain());
  try {
    engine.run();
    FAIL() << "corrupted slot accounting was not detected";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.invariant(), "slot-conservation");
    EXPECT_EQ(violation.expected(), violation.actual() + 1);
    const std::string what = violation.what();
    EXPECT_NE(what.find("slot-conservation"), std::string::npos) << what;
    EXPECT_NE(what.find("expected="), std::string::npos) << what;
    EXPECT_NE(what.find("actual="), std::string::npos) << what;
    EXPECT_NE(what.find("t="), std::string::npos) << what;
  }
  EXPECT_TRUE(corrupted);
}

TEST(InvariantAuditor, EventTimeRegressionThrows) {
  hadoop::Engine engine(small_cluster(), make_woha());
  InvariantAuditor auditor(engine, AuditConfig{});
  const auto log_event = [](SimTime t) {
    return obs::Event{t, obs::LogEmitted{LogLevel::kInfo, "test", "tick"}};
  };
  engine.events().publish(log_event(seconds(5)));
  try {
    engine.events().publish(log_event(seconds(3)));
    FAIL() << "time regression was not detected";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.invariant(), "event-time-monotonic");
    EXPECT_EQ(violation.expected(), seconds(5));
    EXPECT_EQ(violation.actual(), seconds(3));
  }
}

template <class Queue>
void expect_desync_detected() {
  core::SchedulingPlan plan;
  plan.append_step(minutes(10), 2);
  plan.append_step(minutes(5), 4);
  plan.resource_cap = 2;
  Queue queue;
  queue.insert(7, core::ProgressTracker(&plan, minutes(20)));
  queue.insert(9, core::ProgressTracker(&plan, minutes(25)));
  ASSERT_NO_THROW(queue.check_structure());

  core::QueueTestPeer::desync_rho(queue, 7);
  try {
    queue.check_structure();
    FAIL() << "stale pri_key was not detected";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("pri_key stale"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("id 7"), std::string::npos)
        << error.what();
  }
}

TEST(QueueStructure, DslDetectsStalePriorityKey) {
  expect_desync_detected<core::IndexedQueue<core::DslOrdering>>();
}

TEST(QueueStructure, BstDetectsStalePriorityKey) {
  expect_desync_detected<core::IndexedQueue<core::BstOrdering>>();
}

TEST(QueueStructure, BstPlainDetectsStalePriorityKey) {
  expect_desync_detected<core::IndexedQueue<core::BstPlainOrdering>>();
}

}  // namespace
}  // namespace woha::audit
