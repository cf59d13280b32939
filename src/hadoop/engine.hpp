// The simulation engine: wires the discrete-event core, the cluster, the
// JobTracker, and a WorkflowScheduler into a runnable experiment.
//
// Faithfulness notes (all observable in tests):
//  * Scheduling happens only on heartbeats: a slot freed mid-period is not
//    reassigned until its tracker's next heartbeat (Hadoop-1 behaviour;
//    paper: "scheduling events in WOHA are triggered by heartbeat
//    messages").
//  * Each heartbeat lets the scheduler fill every idle slot of that tracker
//    (Hadoop-1 assigns multiple tasks per heartbeat).
//  * Job activation models WOHA's submitter job: when a wjob's last
//    prerequisite finishes, it becomes schedulable only after
//    `activation_latency` (jar loading + task init on a slave).
//  * Actual task durations can deviate from the spec durations the
//    schedulers/plans see, via multiplicative log-normal jitter
//    (duration_jitter_sigma) and a systematic scale factor — used by the
//    estimation-error ablation bench.
//  * Node faults (EngineConfig::faults) follow Hadoop-1 semantics: a
//    crashed TaskTracker goes silent, the JobTracker notices only at lease
//    expiry (or re-registration), running attempts are KILLED and re-queued,
//    and completed map outputs of in-flight jobs die with the node's local
//    disk. See fault.hpp and DESIGN.md ("Fault model").
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dense_id_table.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "hadoop/admission.hpp"
#include "hadoop/cluster.hpp"
#include "hadoop/fault.hpp"
#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/simulation.hpp"

namespace woha::hadoop {

/// Snapshot handed to EngineConfig::autoscale_policy on every autoscaler
/// tick. All fields are ground truth at the tick instant.
struct AutoscaleSignal {
  SimTime now = 0;
  /// Trackers that are up (not crashed, not retired) — includes draining.
  std::size_t live_trackers = 0;
  /// Of those, how many are currently draining out.
  std::size_t draining_trackers = 0;
  /// Admitted-and-unfinished workflows (the backlog-pressure signal).
  std::uint32_t pending_workflows = 0;
  std::uint32_t free_map_slots = 0;
  std::uint32_t free_reduce_slots = 0;
};

struct EngineConfig {
  ClusterConfig cluster;
  /// Delay between "all prerequisites finished" and "job schedulable"
  /// (submitter map task: jar load + split init). The paper's design shifts
  /// this cost off the master; it still takes wall-clock time on a slave.
  Duration activation_latency = seconds(3);
  /// Multiplicative log-normal sigma applied to actual task durations
  /// (0 = deterministic: actual == estimated).
  double duration_jitter_sigma = 0.0;
  /// Systematic scale on actual durations (1.0 = estimates are unbiased).
  /// The plan generator always sees the *spec* durations, so values != 1
  /// model estimation error.
  double duration_scale = 1.0;
  /// RNG seed for duration jitter and tracker selection tie-breaks.
  std::uint64_t seed = 1;
  /// Stop the simulation at this time even if work remains (safety net).
  SimTime horizon = kTimeInfinity;

  // --- failure injection -------------------------------------------------
  /// Probability that a task attempt fails (at a uniformly random point of
  /// its execution). Failed attempts release their slot and the task
  /// returns to the pending pool, exactly like a Hadoop task retry.
  /// p == 1.0 is allowed (every attempt fails) — only meaningful together
  /// with faults.max_attempts > 0.
  double task_failure_prob = 0.0;

  /// Node-level fault model: tracker churn, loss detection, attempt
  /// budgets, blacklisting, speculative execution. Defaults disable
  /// everything, leaving the engine bit-identical to the fault-free build.
  FaultConfig faults;

  // --- overload & elasticity ---------------------------------------------
  /// Admission control and deadline-aware load shedding at submission time
  /// (admission.hpp). Default kAdmitAll keeps today's behaviour exactly.
  AdmissionConfig admission;
  /// Elastic membership: graceful decommissions, preemption waves, dynamic
  /// joins, autoscaler (fault.hpp). Defaults disable everything.
  ElasticityConfig elasticity;
  /// Custom autoscaler rule; returns the desired tracker delta (> 0 joins
  /// that many, < 0 drains that many, 0 holds). Null uses the threshold
  /// rule in ElasticityConfig::autoscaler. Only consulted while
  /// elasticity.autoscaler.enabled; min/max/step caps apply either way.
  std::function<std::int32_t(const AutoscaleSignal&)> autoscale_policy;

  // --- data locality model ------------------------------------------------
  /// Factor applied to a map task's duration when it runs on a tracker that
  /// does not hold a replica of its input split (1.0 disables the model).
  /// Mirrors HDFS's node-local vs remote read cost.
  double remote_map_penalty = 1.0;
  /// HDFS replication factor used by the locality model.
  std::uint32_t hdfs_replication = 3;

  /// Attach an audit::InvariantAuditor to the run (metrics::run_experiment
  /// honours this; the engine itself never depends on the audit library).
  /// Off means no bus subscription, so publish sites reduce to one branch
  /// and the run is bit- and wall-clock-identical to an unaudited one.
  bool audit = false;

  /// Heartbeat parking (DESIGN.md §7b). A tracker whose next heartbeat
  /// provably changes nothing but counters (no free slot, or no job with a
  /// task for any free slot type) has its periodic event parked: the event
  /// keeps its place in the queue, but its callback is skipped until a slot
  /// frees, the tracker's state changes or work appears. Summaries, event
  /// and select counts are identical either way; false keeps every
  /// heartbeat served, as the reference path for differential tests.
  bool park_idle_heartbeats = true;
};

/// One task start/finish observation, for slot-allocation timelines
/// (paper Fig. 14-19) and utilization accounting.
struct TaskEvent {
  SimTime time = 0;
  WorkflowId workflow;
  JobRef job;
  SlotType slot = SlotType::kMap;
  bool started = true;  ///< false == attempt ended (success, failure, kill)
  bool failed = false;  ///< only meaningful when started == false
  /// Attempt was KILLED (tracker lost, speculation race lost, or workflow
  /// failed) rather than finishing on its own. Kills release the slot like
  /// any end event but must not feed duration estimators.
  bool killed = false;
  /// Attempt is a speculative backup (fault model's speculative execution).
  bool speculative = false;
  /// Actual execution time of the attempt; set on end events (0 on
  /// start events). Feeds history-based task-time estimators.
  Duration duration = 0;
};

/// Final per-workflow outcome.
struct WorkflowResult {
  WorkflowId id;
  std::string name;
  SimTime submit_time = 0;
  SimTime deadline = kTimeInfinity;
  SimTime finish_time = -1;       ///< -1 if unfinished at horizon
  Duration workspan = -1;         ///< finish - submit
  Duration tardiness = 0;         ///< max(0, finish - deadline)
  bool met_deadline = false;
  /// A task exhausted its attempt budget: the workflow terminated without
  /// finishing (finish_time stays -1). Shed workflows are reported via
  /// `shed`, not here.
  bool failed = false;
  /// Turned away at submission by the admission controller; the workflow
  /// never entered the JobTracker (id stays default). Counts as a miss when
  /// it carried a deadline.
  bool rejected = false;
  /// Admitted but later evicted by the shedding policy to keep the pending
  /// budget. Counts as a miss when it carried a deadline.
  bool shed = false;
};

struct RunSummary {
  std::vector<WorkflowResult> workflows;
  SimTime makespan = 0;              ///< last finish time
  double deadline_miss_ratio = 0.0;  ///< misses / workflows-with-deadline
  Duration max_tardiness = 0;
  Duration total_tardiness = 0;
  double map_slot_utilization = 0.0;     ///< busy map-slot-time / offered
  double reduce_slot_utilization = 0.0;  ///< busy reduce-slot-time / offered
  double overall_utilization = 0.0;
  std::uint64_t tasks_executed = 0;  ///< attempts started (incl. retried)
  std::uint64_t tasks_failed = 0;    ///< attempts that failed and retried
  std::uint64_t events_fired = 0;
  /// Master-side scheduling overhead: WorkflowScheduler::select_task calls
  /// (the paper's claim that the plan-following scheduler adds negligible
  /// master overhead). Their wall-clock time is the engine.select_task_ns
  /// histogram, recorded only when a metrics registry is attached.
  std::uint64_t select_calls = 0;
  /// Fraction of map tasks that ran node-local (1.0 when the locality
  /// model is disabled).
  double map_locality_ratio = 1.0;

  // --- fault model (all zero when EngineConfig::faults is default) -------
  std::uint64_t tracker_crashes = 0;     ///< TaskTracker outages injected
  std::uint64_t attempts_killed = 0;     ///< KILLED attempts (not FAILED)
  std::uint64_t map_outputs_lost = 0;    ///< completed maps re-executed
  std::uint64_t workflows_failed = 0;    ///< attempt budget exhausted
  std::uint64_t blacklistings = 0;       ///< (job, tracker) pairs blacklisted
  std::uint64_t speculative_launched = 0;  ///< backup attempts started
  std::uint64_t speculative_won = 0;       ///< backups that beat the original
  /// Slot-time burned by speculation losers (the cost side of the backup
  /// bet; the benefit shows up as lower tardiness under churn).
  double speculative_wasted_ms = 0.0;

  // --- overload & elasticity (all zero when both subsystems are off) -----
  std::uint64_t workflows_submitted = 0;  ///< offered to the master
  std::uint64_t workflows_rejected = 0;   ///< turned away at admission
  std::uint64_t workflows_shed = 0;       ///< evicted to keep the budget
  /// Peak admitted-and-unfinished workflow count over the run — the bounded
  /// vs unbounded queue signal of the rho sweep.
  std::uint32_t pending_peak = 0;
  std::uint64_t tracker_decommissions = 0;  ///< graceful retirements
  std::uint64_t tracker_preemptions = 0;    ///< spot terminations
  std::uint64_t trackers_joined = 0;        ///< dynamic registrations
  /// Attempts killed and re-queued because their node's drain lease (or
  /// preemption warning) ran out before they finished.
  std::uint64_t drain_migrated = 0;
};

class Engine {
 public:
  Engine(EngineConfig config, std::unique_ptr<WorkflowScheduler> scheduler);

  /// Queue a workflow for submission at spec.submit_time. Must be called
  /// before run().
  void submit(wf::WorkflowSpec spec);

  /// Optional observer invoked on every task start/finish (timelines).
  /// Implemented as an EventBus subscription translating obs::TaskStarted /
  /// obs::TaskEnded back into the legacy TaskEvent shape, so the bus is the
  /// single event pipeline. Passing nullptr removes the observer.
  void set_task_observer(std::function<void(const TaskEvent&)> observer);

  /// The engine's event bus. Subscribe exporters/tests before run(); with
  /// no subscribers every publish site reduces to a single branch.
  [[nodiscard]] obs::EventBus& events() { return events_; }
  [[nodiscard]] const obs::EventBus& events() const { return events_; }

  /// Attach a metrics registry (nullptr detaches). Instrument handles are
  /// resolved once here, so hot-path updates are plain field writes; with
  /// no registry attached the engine records nothing and skips the
  /// wall-clock reads entirely.
  void set_metrics_registry(obs::MetricsRegistry* registry);
  [[nodiscard]] obs::MetricsRegistry* metrics_registry() const { return registry_; }

  /// The engine RNG's full state. Determinism-under-observability tests
  /// compare this across bus-off/bus-on runs: equal final states prove the
  /// observability layer never consumed a draw.
  [[nodiscard]] std::array<std::uint64_t, 5> rng_state() const {
    return rng_.state();
  }

  /// Run to completion (or to config.horizon).
  void run();

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const JobTracker& job_tracker() const { return job_tracker_; }
  [[nodiscard]] const Cluster& cluster() const { return cluster_; }
  [[nodiscard]] const WorkflowScheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] SimTime now() const { return sim_.now(); }

  /// Mutable cluster access for auditor failure-path tests, which corrupt
  /// slot accounting mid-run to prove the auditor trips. Production code
  /// must never call this.
  [[nodiscard]] Cluster& cluster_for_test() { return cluster_; }

  /// Collect results after run().
  [[nodiscard]] RunSummary summarize() const;

  /// Ground-truth admission accounting for the invariant auditor:
  /// submitted == admitted + rejected must hold at all times, and shed
  /// never exceeds admitted.
  struct AdmissionStats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint32_t pending_peak = 0;
  };
  [[nodiscard]] AdmissionStats admission_stats() const {
    return {workflows_submitted_,
            workflows_submitted_ - workflows_rejected_,
            workflows_rejected_, workflows_shed_, pending_peak_};
  }

 private:
  /// One running attempt (Hadoop TaskAttempt): the unit that occupies a
  /// slot, can finish, fail, or be KILLED by a node fault / lost race.
  struct Attempt {
    JobRef ref;
    SlotType type = SlotType::kMap;
    std::size_t tracker = 0;
    SimTime start_time = 0;
    Duration duration = 0;  ///< scheduled runtime (truncated when will_fail)
    std::uint32_t retry_level = 0;
    bool will_fail = false;
    bool speculative = false;
    std::uint64_t rival = 0;  ///< id of the speculation twin (0 = none)
    sim::EventHandle finish_event;
  };

  /// JobTracker-side record of one tracker's health between crash events.
  struct TrackerFaultState {
    bool dead = false;
    bool detected = false;  ///< loss processed (expiry or re-registration)
    SimTime crash_time = 0;
    std::uint64_t epoch = 0;  ///< guards stale detection/restart events
  };

  /// Elastic-membership state of one tracker (decommission / preemption /
  /// join lifecycle), alongside but independent of TrackerFaultState: a
  /// draining node can still crash, and the crash machinery then owns it.
  struct TrackerElasticState {
    bool draining = false;  ///< drain in progress (decommission or warning)
    bool retired = false;   ///< permanently gone (decommissioned/preempted)
    /// True while the drain is a preemption warning: the node terminates at
    /// the lease instant no matter what (no early retirement when idle).
    bool preempting = false;
    SimTime lease_deadline = 0;
    std::uint64_t epoch = 0;  ///< guards stale drain-expiry events
  };

  void do_submit(wf::WorkflowSpec spec);
  /// The periodic heartbeat callback of one tracker.
  void heartbeat_tick(std::size_t tracker_index);
  void heartbeat(std::size_t tracker_index);
  /// End of a served heartbeat: park the tracker's heartbeat event when
  /// its next firing would provably be a no-op (see park_idle_heartbeats).
  void park_if_idle(std::size_t tracker_index);
  /// Account the firings skipped since the tracker was parked as the
  /// served no-op heartbeats they stand for.
  void settle_parked(std::size_t tracker_index);
  /// Bump a tracker's wake epoch: a parked heartbeat fires for real next.
  void wake(std::size_t tracker_index) { ++tracker_epoch_[tracker_index]; }
  void wake_all();
  /// A workflow finished, failed or was shed.
  void workflow_ended();
  void activate_job(JobRef ref);
  void start_task(JobRef ref, SlotType type, std::size_t tracker_index);
  void finish_attempt(std::uint64_t attempt_id);
  [[nodiscard]] Duration actual_duration(Duration estimated);
  /// True when the map input split of the next task of `ref` has a replica
  /// on `tracker_index` under the randomized HDFS placement model.
  [[nodiscard]] bool map_is_local(JobRef ref, std::size_t tracker_index);
  /// The common stochastic part of launching an attempt; draws duration
  /// jitter, map locality, and injected failure in a fixed order (the order
  /// is load-bearing: fault-free runs must replay the exact pre-fault-model
  /// RNG sequence).
  [[nodiscard]] Duration draw_attempt(JobRef ref, SlotType type,
                                      std::size_t tracker_index, bool& will_fail);

  // --- fault machinery ----------------------------------------------------
  void crash_tracker(std::size_t tracker_index, SimTime restart_time);
  void restart_tracker(std::size_t tracker_index);
  /// JobTracker learns the tracker is gone (lease expiry or the node
  /// re-registering): kill its attempts, re-queue the lost tasks,
  /// invalidate its map outputs, retire its slots.
  void detect_tracker_loss(std::size_t tracker_index);
  /// Remove one attempt without letting it finish: cancel, release the
  /// slot, refund un-executed busy time, emit the KILLED event. `stop_time`
  /// is when the attempt actually stopped executing (crash instant for node
  /// loss, now for lost races). `cause` names the kill site on the emitted
  /// TaskEnded so forensics can classify it. Returns the removed record.
  Attempt kill_attempt(std::uint64_t attempt_id, SimTime stop_time,
                       obs::KillCause cause);
  /// Task exhausted its attempt budget: fail the whole workflow, kill its
  /// other running attempts, notify the scheduler.
  void fail_workflow(std::uint32_t workflow, SimTime now);
  /// Charge one injected failure toward (job, tracker) blacklisting.
  void record_attempt_failure(JobRef ref, std::size_t tracker_index);
  /// Launch at most one speculative backup into a free slot of
  /// `tracker_index`; returns whether one was launched.
  bool try_speculate(SlotType type, std::size_t tracker_index);
  /// Register / retire an attempt in the hot-path indices
  /// (attempts_by_workflow_, spec_candidates_). Call _add right after the
  /// attempt record is complete and _remove right after it leaves
  /// attempts_, with the record as of insertion time.
  void index_attempt_add(std::uint64_t id, const Attempt& a);
  void index_attempt_remove(std::uint64_t id, const Attempt& a);
  /// Candidate set maintenance for the speculation scan. Eligibility is
  /// (non-speculative, no rival); both calls are no-ops for ineligible
  /// attempts or when speculation is off.
  void spec_candidate_add(std::uint64_t id, const Attempt& a);
  void spec_candidate_remove(std::uint64_t id, const Attempt& a);
  void schedule_next_mtbf_crash(std::size_t tracker_index);
  [[nodiscard]] bool blacklisted(JobRef ref, std::size_t tracker_index) const {
    return blacklist_.find({ref, tracker_index}) != blacklist_.end();
  }

  // --- overload & elasticity machinery ------------------------------------
  /// Shed an admitted workflow (deadline-aware load shedding): tear it
  /// down like fail_workflow but tagged shed, kill its running attempts.
  void shed_workflow(std::uint32_t workflow, SimTime now);
  /// Enforce the shed policy's pending budget after a submission, then
  /// record the pending peak.
  void enforce_pending_budget();
  /// Start a graceful decommission: drain now, retire when the node goes
  /// idle or the lease expires, whichever comes first.
  void begin_decommission(std::size_t tracker_index, Duration lease);
  /// Drain lease ran out: kill + re-queue the stragglers, retire the node.
  void drain_lease_expired(std::size_t tracker_index, std::uint64_t epoch);
  /// Preemption warning fired earlier; the node terminates now.
  void preempt_terminate(std::size_t tracker_index, std::uint64_t epoch);
  /// Kill + re-queue everything still running on a draining tracker
  /// (master-initiated, so no lease-expiry delay and no attempt-budget
  /// charge), invalidate its stranded map outputs, and retire it. `cause`
  /// distinguishes drain-lease expiry from preemption. Returns the number
  /// of attempts migrated.
  std::uint32_t migrate_off(std::size_t tracker_index, obs::KillCause cause);
  /// Retire a fully drained tracker out of the cluster for good.
  void retire_tracker(std::size_t tracker_index, std::uint32_t migrated,
                      bool preempted);
  /// A draining (non-preempting) tracker may have just gone idle; if so,
  /// complete its decommission at the current instant (scheduled as a
  /// same-tick event so in-flight bookkeeping settles first).
  void maybe_complete_drain(std::size_t tracker_index);
  void preemption_wave(const PreemptionWave& wave);
  /// Register `count` fresh trackers with the master right now.
  void join_trackers(std::uint32_t count);
  void autoscale_tick();
  /// Integrate offered slot-capacity over time (elastic runs only), then
  /// apply a capacity delta. Call at the instant capacity changes.
  void account_capacity_change(std::int64_t map_delta, std::int64_t reduce_delta);
  [[nodiscard]] std::size_t pick_drain_victim() const;

  EngineConfig config_;
  sim::Simulation sim_;
  Cluster cluster_;
  JobTracker job_tracker_;
  std::unique_ptr<WorkflowScheduler> scheduler_;
  Rng rng_;
  std::vector<wf::WorkflowSpec> pending_submissions_;
  bool started_ = false;

  // Observability. The bus is owned here so every component shares one
  // stream; the registry is borrowed (callers own snapshots/dumping).
  // Instrument handles are resolved once in set_metrics_registry so the
  // hot paths touch raw pointers only.
  obs::EventBus events_;
  obs::MetricsRegistry* registry_ = nullptr;
  struct MetricHandles {
    obs::Histogram* heartbeat_ns = nullptr;
    obs::Histogram* select_ns = nullptr;
    obs::Counter* heartbeats = nullptr;
    obs::Counter* heartbeats_parked = nullptr;
    obs::Counter* tasks_started = nullptr;
    obs::Counter* tasks_finished = nullptr;
    obs::Counter* tasks_failed = nullptr;
    obs::Counter* attempts_killed = nullptr;
    obs::Counter* tracker_crashes = nullptr;
    obs::Counter* speculative_launched = nullptr;
    obs::Counter* workflows_rejected = nullptr;
    obs::Counter* workflows_shed = nullptr;
    obs::Counter* decommissions = nullptr;
    obs::Counter* preemptions = nullptr;
    obs::Counter* joins = nullptr;
    obs::Gauge* pending_workflows = nullptr;
    obs::Gauge* pending_peak = nullptr;
  };
  MetricHandles handles_;
  obs::EventBus::SubscriptionId task_observer_subscription_ = 0;

  // Running attempts, keyed by attempt id (ids start at 1 so 0 can mean "no
  // rival"). Lookup only — all iteration goes through tracker_attempts_,
  // whose per-tracker insertion order is deterministic. Ids are handed out
  // monotonically and live briefly, so the flat sliding-window arena
  // replaces hashing with an index subtract (see dense_id_table.hpp).
  DenseIdTable<Attempt> attempts_;
  std::vector<std::vector<std::uint64_t>> tracker_attempts_;
  std::uint64_t next_attempt_id_ = 1;

  // Heartbeat parking. hb_[t] holds tracker t's periodic event; `parked`
  // means skipped firings are still to be settled. A parked event watches
  // tracker_epoch_[t] (bumped on every change to the tracker's slots or
  // membership) and, when the tracker has free slots, the JobTracker's
  // available-jobs counter of their types, which must still read 0. A
  // deque, so the watched addresses survive joins.
  struct HeartbeatPark {
    sim::EventHandle event;
    std::uint8_t offers = 0;  ///< slot types each skipped firing offered
    bool parked = false;
  };
  std::vector<HeartbeatPark> hb_;
  std::deque<std::uint64_t> tracker_epoch_;
  // Blacklist eligibility callable, built once and retargeted per heartbeat
  // through heartbeat_tracker_ so churn-heavy runs do not heap-allocate a
  // std::function per heartbeat.
  std::function<bool(JobRef)> blacklist_filter_;
  std::size_t heartbeat_tracker_ = 0;
  // Start-task sink handed to WorkflowScheduler::select_tasks, built once
  // and retargeted per offer through heartbeat_tracker_ /
  // heartbeat_slot_type_ (same no-per-heartbeat-allocation idiom as
  // blacklist_filter_).
  std::function<void(JobRef)> start_sink_;
  SlotType heartbeat_slot_type_ = SlotType::kMap;

  // Hot-path attempt indices. Both are ordered sets so their iteration
  // reproduces, bit for bit, the (tracker ascending, launch order within
  // tracker) sweep the engine used to perform over every tracker — attempt
  // ids are handed out monotonically, so launch order == id order.
  //
  // spec_candidates_[type]: running attempts eligible to *receive* a backup
  // (non-speculative, no rival), keyed (tracker, attempt id). Only
  // maintained when faults.speculative_execution is on.
  std::set<std::pair<std::size_t, std::uint64_t>> spec_candidates_[2];
  // attempts_by_workflow_: every running attempt keyed (workflow, tracker,
  // attempt id), so the kill sweeps of fail_workflow and shed_workflow touch
  // only the dying workflow's attempts. Only maintained when one of the two
  // can run (index_by_workflow_: faults.max_attempts > 0 or the shedding
  // admission policy is active).
  std::set<std::tuple<std::uint32_t, std::size_t, std::uint64_t>> attempts_by_workflow_;
  bool index_by_workflow_ = false;

  // Fault state. map_outputs_[t][job] counts completed maps of `job` whose
  // output sits on tracker t's local disk (only tracked for jobs with
  // reduces, and only when churn is enabled). std::map/std::set keep every
  // iteration order deterministic.
  std::vector<TrackerFaultState> fault_state_;
  std::vector<std::map<JobRef, std::uint32_t>> map_outputs_;
  std::set<std::pair<JobRef, std::size_t>> blacklist_;
  std::map<std::pair<JobRef, std::size_t>, std::uint32_t> job_tracker_failures_;
  std::vector<Rng> tracker_fault_rngs_;
  /// Root of the fault RNG streams; joined trackers draw fresh splits from
  /// it, so churn stays deterministic under dynamic membership.
  Rng fault_rng_root_{0};
  std::size_t live_trackers_ = 0;
  std::size_t pending_restarts_ = 0;

  // Overload & elasticity state.
  std::unique_ptr<AdmissionController> admission_;
  std::vector<TrackerElasticState> elastic_state_;
  bool elastic_on_ = false;  ///< config_.elasticity.any_enabled(), cached
  std::vector<WorkflowResult> rejected_results_;
  std::size_t pending_joins_ = 0;  ///< scheduled-but-unfired join events
  std::uint64_t workflows_submitted_ = 0;
  std::uint64_t workflows_rejected_ = 0;
  std::uint64_t workflows_shed_ = 0;
  std::uint32_t pending_peak_ = 0;
  std::uint64_t decommissions_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t trackers_joined_ = 0;
  std::uint64_t drain_migrated_ = 0;
  // Offered-capacity integral (slot-ms per slot type) for utilization
  // denominators under elastic membership; maintained only when
  // elastic_on_ (static capacity formula otherwise).
  double offered_slot_ms_[2] = {0.0, 0.0};
  std::int64_t current_capacity_[2] = {0, 0};
  SimTime last_capacity_change_ = 0;

  // Accounting for utilization: integral of busy slots over time.
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t tasks_failed_ = 0;
  std::uint64_t local_maps_ = 0;
  std::uint64_t total_maps_ = 0;
  std::uint64_t select_calls_ = 0;
  SimTime first_submit_ = kTimeInfinity;
  double busy_ms_[2] = {0.0, 0.0};  // per SlotType: sum of task durations

  // Fault metrics.
  std::uint64_t tracker_crashes_ = 0;
  std::uint64_t attempts_killed_ = 0;
  std::uint64_t map_outputs_lost_ = 0;
  std::uint64_t workflows_failed_ = 0;
  std::uint64_t blacklistings_ = 0;
  std::uint64_t speculative_launched_ = 0;
  std::uint64_t speculative_won_ = 0;
  double speculative_wasted_ms_ = 0.0;
};

}  // namespace woha::hadoop
