// Node-level fault model: tracker crashes, lease-expiry detection, map
// output invalidation, attempt budgets, blacklisting, and speculative
// execution (see fault.hpp and DESIGN.md "Fault model").
#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workflow/topology.hpp"

namespace woha::hadoop {
namespace {

EngineConfig small_cluster(std::uint32_t trackers = 4) {
  EngineConfig config;
  config.cluster.num_trackers = trackers;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(1);
  config.seed = 5;
  return config;
}

wf::WorkflowSpec single_job(std::uint32_t maps, std::uint32_t reduces,
                            Duration map_d, Duration reduce_d) {
  wf::WorkflowSpec spec;
  spec.name = "mr";
  spec.jobs.push_back({"j0", maps, reduces, map_d, reduce_d, {}});
  return spec;
}

TEST(FaultValidation, RejectsBadSettings) {
  const auto reject = [](auto mutate) {
    FaultConfig faults;
    mutate(faults);
    EXPECT_THROW(faults.validate(4), std::invalid_argument);
  };
  reject([](FaultConfig& f) { f.tracker_mtbf = -1.0; });
  reject([](FaultConfig& f) { f.tracker_restart_delay = -1; });
  reject([](FaultConfig& f) { f.expiry_interval = 0; });
  reject([](FaultConfig& f) { f.speculative_slowness = 1.0; });
  reject([](FaultConfig& f) { f.speculative_slowness = 0.5; });
  reject([](FaultConfig& f) { f.speculative_min_runtime = -1; });
  reject([](FaultConfig& f) { f.events.push_back({4, seconds(1), kTimeInfinity}); });
  reject([](FaultConfig& f) { f.events.push_back({0, -1, kTimeInfinity}); });
  reject([](FaultConfig& f) { f.events.push_back({0, seconds(10), seconds(10)}); });
  reject([](FaultConfig& f) {
    // Second outage begins while the first is still in progress.
    f.events.push_back({0, seconds(10), seconds(100)});
    f.events.push_back({0, seconds(50), seconds(200)});
  });
  FaultConfig ok;
  ok.events.push_back({0, seconds(10), seconds(100)});
  ok.events.push_back({0, seconds(100), kTimeInfinity});  // back-to-back is fine
  ok.tracker_mtbf = 1e6;
  EXPECT_NO_THROW(ok.validate(4));
}

TEST(NodeChurn, CrashAndRestartStillCompletes) {
  auto config = small_cluster();
  config.faults.events.push_back({0, seconds(50), seconds(120)});
  config.faults.expiry_interval = seconds(60);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  const auto spec = wf::chain(2);
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_EQ(summary.workflows.size(), 1u);
  EXPECT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_FALSE(summary.workflows[0].failed);
  EXPECT_EQ(summary.tracker_crashes, 1u);
  EXPECT_GT(summary.attempts_killed, 0u);
  EXPECT_EQ(summary.workflows_failed, 0u);
}

TEST(NodeChurn, DetectionWaitsForLeaseExpiry) {
  // A tracker dies silently and never returns. The work it held cannot be
  // re-queued before the JobTracker's lease on it expires, so a longer
  // expiry interval delays completion by (roughly) the difference.
  const auto run_with_expiry = [](Duration expiry) {
    auto config = small_cluster();
    config.faults.events.push_back({0, seconds(50), kTimeInfinity});
    config.faults.expiry_interval = expiry;
    Engine engine(config, std::make_unique<sched::FifoScheduler>());
    engine.submit(single_job(10, 3, seconds(60), seconds(120)));
    engine.run();
    return engine.summarize();
  };
  const auto fast = run_with_expiry(seconds(60));
  const auto slow = run_with_expiry(seconds(600));
  ASSERT_GE(fast.workflows[0].finish_time, 0);
  ASSERT_GE(slow.workflows[0].finish_time, 0);
  // Tasks running on the dead node at t=50s are only re-queued at expiry.
  EXPECT_GE(slow.workflows[0].finish_time, seconds(50) + seconds(600));
  EXPECT_GT(slow.workflows[0].finish_time, fast.workflows[0].finish_time);
  EXPECT_GT(fast.attempts_killed, 0u);
}

TEST(NodeChurn, MapOutputLossForcesReexecution) {
  // Crash a tracker during the reduce phase: its completed map outputs die
  // with its local disk, so those maps re-execute even though they had
  // already succeeded once.
  auto config = small_cluster(2);
  config.faults.events.push_back({0, seconds(250), seconds(260)});
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  const auto spec = single_job(10, 3, seconds(60), seconds(300));
  std::uint64_t map_successes = 0;
  engine.set_task_observer([&](const TaskEvent& e) {
    if (e.slot == SlotType::kMap && !e.started && !e.failed && !e.killed) {
      ++map_successes;
    }
  });
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_GT(summary.map_outputs_lost, 0u);
  // Re-executed maps mean more successful map attempts than the job has maps.
  EXPECT_GT(map_successes, 10u);
  EXPECT_GT(summary.tasks_executed, spec.total_tasks());
}

TEST(NodeChurn, MtbfDrivenCrashesAreInjected) {
  auto config = small_cluster(6);
  config.faults.tracker_mtbf = 200.0 * 1000.0;  // 200 s per tracker
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(60);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(wf::paper_fig7_topology());
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_GT(summary.tracker_crashes, 0u);
}

TEST(NodeChurn, WholeClusterLossTerminatesTheRun) {
  // Every tracker dies and none come back: the engine must stop instead of
  // heartbeating an empty cluster forever.
  auto config = small_cluster(2);
  config.faults.events.push_back({0, seconds(30), kTimeInfinity});
  config.faults.events.push_back({1, seconds(40), kTimeInfinity});
  config.faults.expiry_interval = seconds(60);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(10, 3, seconds(60), seconds(120)));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_EQ(summary.tracker_crashes, 2u);
  EXPECT_LT(summary.workflows[0].finish_time, 0);  // unfinished, not hung
}

TEST(WohaChurn, ProgressRegressionKeepsQueueConsistent) {
  // Killing scheduled tasks regresses rho; every queue implementation must
  // absorb the regression without corrupting its ordering invariants.
  for (const auto kind : {core::QueueKind::kDsl, core::QueueKind::kBst,
                          core::QueueKind::kBstPlain, core::QueueKind::kNaive}) {
    auto config = small_cluster();
    config.faults.events.push_back({0, seconds(50), seconds(150)});
    config.faults.expiry_interval = seconds(60);
    core::WohaConfig woha;
    woha.queue = kind;
    Engine engine(config, std::make_unique<core::WohaScheduler>(woha));
    auto spec = wf::chain(3);
    spec.relative_deadline = hours(2);
    engine.submit(spec);
    engine.run();
    const auto summary = engine.summarize();
    ASSERT_EQ(summary.workflows.size(), 1u) << core::to_string(kind);
    EXPECT_GE(summary.workflows[0].finish_time, 0) << core::to_string(kind);
    EXPECT_EQ(summary.tracker_crashes, 1u) << core::to_string(kind);
    EXPECT_GT(summary.attempts_killed, 0u) << core::to_string(kind);
  }
}

TEST(Blacklisting, RepeatOffenderTrackerIsShunned) {
  auto config = small_cluster(6);
  config.task_failure_prob = 0.3;
  config.faults.blacklist_task_failures = 1;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(wf::paper_fig7_topology());
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_GT(summary.tasks_failed, 0u);
  EXPECT_GT(summary.blacklistings, 0u);
}

TEST(Blacklisting, CapNeverStarvesAJob) {
  // With a 2-tracker cluster and instant blacklisting, an uncapped
  // implementation would blacklist both trackers and spin forever. The
  // Hadoop-1 25%-of-cluster cap keeps at least one tracker usable.
  auto config = small_cluster(2);
  config.task_failure_prob = 0.5;
  config.faults.blacklist_task_failures = 1;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(8, 2, seconds(30), seconds(60)));
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_LE(summary.blacklistings, 1u);  // cap = max(1, 2/4) = 1
}

TEST(Speculation, BackupsRescueTasksStuckOnASilentlyDeadNode) {
  // A tracker dies 30 s in and never returns; the lease lasts 10 minutes.
  // Without speculation the tasks it held would stall until expiry. LATE
  // flags the zero-progress zombies and backs them up on live nodes, so the
  // job finishes long before the lease runs out.
  auto config = small_cluster();
  config.faults.events.push_back({0, seconds(30), kTimeInfinity});
  config.faults.expiry_interval = minutes(10);
  config.faults.speculative_execution = true;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(10, 0, seconds(120), 0));
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_LT(summary.workflows[0].finish_time, seconds(30) + minutes(10));
  EXPECT_GE(summary.speculative_launched, 2u);  // the dead node held 2 maps
}

TEST(Speculation, StragglersGetBackupsAndAccountingBalances) {
  auto config = small_cluster();
  config.duration_jitter_sigma = 0.8;
  config.faults.speculative_execution = true;
  config.faults.speculative_min_runtime = seconds(10);
  config.faults.speculative_slowness = 1.2;
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  const auto spec = single_job(30, 0, seconds(60), 0);
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_GT(summary.speculative_launched, 0u);
  // Every logical task succeeds exactly once; every other attempt start is
  // accounted for as a failure or a lost speculation race.
  EXPECT_EQ(summary.tasks_executed,
            spec.total_tasks() + summary.tasks_failed + summary.attempts_killed);
  // Without node churn every race resolves by killing exactly one rival.
  EXPECT_EQ(summary.attempts_killed, summary.speculative_launched);
  EXPECT_LE(summary.speculative_won, summary.speculative_launched);
}

TEST(NodeChurn, CrashRightAfterAssignmentReleasesExactlyTheHeldSlots) {
  // Crash-during-assignment: tracker 0 receives both of its map assignments
  // at the t=3000 heartbeat and dies at t=3001, before either runs a single
  // simulated millisecond. At lease expiry the detection sweep must release
  // exactly the two just-occupied map slots — no more, no less — or
  // Cluster::deactivate throws ("tracker has occupied slots" on a missed
  // release; TrackerState::release underflow on a double one). The restart
  // then re-links the tracker into the per-type freelists at full capacity.
  auto config = small_cluster();
  config.faults.events.push_back({0, 3001, seconds(300)});
  config.faults.expiry_interval = seconds(30);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());

  std::uint32_t zombies_killed = 0;
  bool freelist_checked = false;
  engine.events().subscribe([&](const obs::Event& e) {
    if (const auto* t = std::get_if<obs::TrackerLost>(&e.payload)) {
      zombies_killed = t->attempts_killed;
      // Published after the kill sweep and deactivation: the dead tracker
      // is back to full (idle) capacity and off both freelists.
      const TrackerState& dead = engine.cluster().tracker(t->tracker);
      EXPECT_FALSE(dead.alive());
      EXPECT_EQ(dead.free_slots(SlotType::kMap), dead.capacity(SlotType::kMap));
      EXPECT_EQ(dead.free_slots(SlotType::kReduce),
                dead.capacity(SlotType::kReduce));
      for (std::size_t i = engine.cluster().first_free(SlotType::kMap);
           i != Cluster::kNoTracker;
           i = engine.cluster().next_free(SlotType::kMap, i)) {
        EXPECT_NE(i, t->tracker) << "dead tracker still on the map freelist";
      }
      freelist_checked = true;
    }
  });

  engine.submit(single_job(8, 2, seconds(120), seconds(60)));
  engine.run();
  const auto summary = engine.summarize();
  ASSERT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_TRUE(freelist_checked);
  EXPECT_EQ(zombies_killed, 2u);  // exactly the two maps assigned at t=3000
  EXPECT_EQ(summary.tracker_crashes, 1u);

  // After the run every tracker is idle and back on both freelists; the
  // incremental counters agree with a from-scratch recount.
  for (const SlotType t : {SlotType::kMap, SlotType::kReduce}) {
    std::uint32_t live_with_free = 0;
    for (std::size_t i = 0; i < engine.cluster().tracker_count(); ++i) {
      const TrackerState& tr = engine.cluster().tracker(i);
      EXPECT_TRUE(tr.alive()) << "tracker " << i;
      EXPECT_EQ(tr.free_slots(t), tr.capacity(t)) << "tracker " << i;
      if (tr.alive() && tr.free_slots(t) > 0) ++live_with_free;
    }
    std::uint32_t on_list = 0;
    for (std::size_t i = engine.cluster().first_free(t);
         i != Cluster::kNoTracker; i = engine.cluster().next_free(t, i)) {
      ++on_list;
      ASSERT_LE(on_list, engine.cluster().tracker_count()) << "freelist cycle";
    }
    EXPECT_EQ(on_list, live_with_free);
    EXPECT_EQ(engine.cluster().free_tracker_count(t), live_with_free);
  }
}

TEST(Speculation, SameTickDetectionAndBackupFinishCountProgressOnce) {
  // Regression for the same-heartbeat-window speculation race: tracker 0
  // crashes silently at t=10s holding two map attempts; their backups launch
  // at t=123.25s on tracker 1 and finish at exactly t=243.25s. The expiry
  // interval is tuned so the lease-loss detection fires in the SAME tick
  // (243.25s) — and first within it, because its event was scheduled at
  // crash time and therefore carries a smaller sequence number. The
  // detection kills the zombie originals, whose rivals (the backups) are
  // still in flight: that kill must neither re-queue the task nor roll rho
  // back (the task is not lost — its twin completes it in this very tick).
  // A double credit or a spurious rollback would show up as extra executed
  // tasks, a later finish time, or a QueueReordered publication.
  auto config = small_cluster();
  config.faults.events.push_back({0, seconds(10), kTimeInfinity});
  config.faults.expiry_interval = 233250;  // detection at 10000 + 233250
  config.faults.speculative_execution = true;
  config.faults.speculative_min_runtime = seconds(30);
  core::WohaConfig woha;
  Engine engine(config, std::make_unique<core::WohaScheduler>(woha));

  SimTime tracker_lost_at = -1;
  std::uint64_t rho_rollbacks = 0;
  std::uint64_t completions = 0;
  SimTime last_completion_at = -1;
  engine.events().subscribe([&](const obs::Event& e) {
    if (std::get_if<obs::TrackerLost>(&e.payload)) tracker_lost_at = e.time;
    if (const auto* q = std::get_if<obs::QueueReordered>(&e.payload)) {
      rho_rollbacks += q->tasks_lost;
    }
    if (const auto* t = std::get_if<obs::TaskEnded>(&e.payload)) {
      if (!t->failed && !t->killed) {
        ++completions;
        last_completion_at = e.time;
      }
    }
  });

  auto spec = single_job(8, 0, seconds(120), 0);
  spec.relative_deadline = hours(2);
  engine.submit(spec);
  engine.run();
  const auto summary = engine.summarize();

  // The collision actually happened: detection and the winning backups
  // landed on one tick. (If engine timing ever shifts, re-derive the expiry
  // from a TaskStarted/TaskEnded trace rather than weakening the checks.)
  ASSERT_EQ(tracker_lost_at, 243250);
  ASSERT_EQ(last_completion_at, tracker_lost_at);

  // Exactly 8 logical completions — the two raced tasks were counted once.
  EXPECT_EQ(completions, 8u);
  EXPECT_EQ(summary.tasks_executed, 8u + summary.attempts_killed);
  EXPECT_EQ(summary.attempts_killed, 2u);    // the two zombie originals
  EXPECT_EQ(summary.speculative_launched, 2u);
  // The race was resolved by the detection kill, not by a finish-first win.
  EXPECT_EQ(summary.speculative_won, 0u);
  // The loser's kill saw a live rival: no task was lost, so rho must not
  // have been rolled back (a rollback publishes QueueReordered).
  EXPECT_EQ(rho_rollbacks, 0u);
  EXPECT_EQ(summary.workflows[0].finish_time, 243250);
  // rho (scheduled-task credit) matches non-speculative starts exactly:
  // 8 originals counted once each, backups bypass the counter.
  EXPECT_EQ(engine.job_tracker().workflow(WorkflowId(0)).tasks_scheduled(), 8u);
}

TEST(AttemptBudget, ExhaustionFailsTheWorkflow) {
  // Every attempt fails; two attempts per task are allowed. The workflow
  // must be reported FAILED (not run forever) and count as a deadline miss.
  const auto run_with = [](std::unique_ptr<WorkflowScheduler> scheduler) {
    auto config = small_cluster(2);
    config.task_failure_prob = 1.0;
    config.faults.max_attempts = 2;
    Engine engine(config, std::move(scheduler));
    auto spec = single_job(2, 0, seconds(10), 0);
    spec.relative_deadline = minutes(30);
    engine.submit(spec);
    engine.run();
    return engine.summarize();
  };
  for (int use_woha = 0; use_woha < 2; ++use_woha) {
    const auto summary =
        use_woha ? run_with(std::make_unique<core::WohaScheduler>(core::WohaConfig{}))
                 : run_with(std::make_unique<sched::FifoScheduler>());
    ASSERT_EQ(summary.workflows.size(), 1u);
    EXPECT_EQ(summary.workflows_failed, 1u);
    EXPECT_TRUE(summary.workflows[0].failed);
    EXPECT_LT(summary.workflows[0].finish_time, 0);
    EXPECT_FALSE(summary.workflows[0].met_deadline);
    EXPECT_DOUBLE_EQ(summary.deadline_miss_ratio, 1.0);
    EXPECT_GE(summary.tasks_failed, 2u);
  }
}

TEST(AttemptBudget, KilledAttemptsDoNotCountAgainstTheBudget) {
  // max_attempts == 1 means a single FAILED attempt dooms the workflow; a
  // node loss KILLS its attempts instead, so the workflow must survive the
  // crash and complete (Hadoop's KILLED vs FAILED distinction).
  auto config = small_cluster();
  config.faults.max_attempts = 1;
  config.faults.events.push_back({0, seconds(50), seconds(120)});
  config.faults.expiry_interval = seconds(30);
  Engine engine(config, std::make_unique<sched::FifoScheduler>());
  engine.submit(single_job(10, 3, seconds(60), seconds(120)));
  engine.run();
  const auto summary = engine.summarize();
  EXPECT_GT(summary.attempts_killed, 0u);
  EXPECT_EQ(summary.workflows_failed, 0u);
  EXPECT_GE(summary.workflows[0].finish_time, 0);
  EXPECT_FALSE(summary.workflows[0].failed);
}

}  // namespace
}  // namespace woha::hadoop
