#include "hadoop/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "obs/scoped_timer.hpp"

namespace woha::hadoop {

Engine::Engine(EngineConfig config, std::unique_ptr<WorkflowScheduler> scheduler)
    : config_(config),
      cluster_(config.cluster),
      scheduler_(std::move(scheduler)),
      rng_(config.seed) {
  if (!scheduler_) throw std::invalid_argument("Engine: scheduler is null");
  if (config_.activation_latency < 0) {
    throw std::invalid_argument("Engine: negative activation latency");
  }
  if (config_.duration_scale <= 0.0) {
    throw std::invalid_argument("Engine: duration_scale must be positive");
  }
  if (config_.task_failure_prob < 0.0 || config_.task_failure_prob > 1.0) {
    throw std::invalid_argument("Engine: task_failure_prob must be in [0, 1]");
  }
  if (config_.remote_map_penalty < 1.0) {
    throw std::invalid_argument("Engine: remote_map_penalty must be >= 1");
  }
  if (config_.hdfs_replication == 0) {
    throw std::invalid_argument("Engine: hdfs_replication must be >= 1");
  }
  if (config_.cluster.heartbeat_period <= 0) {
    throw std::invalid_argument("Engine: heartbeat_period must be positive");
  }
  config_.faults.validate(cluster_.tracker_count());
  config_.admission.validate();
  config_.elasticity.validate(cluster_.tracker_count());
  tracker_attempts_.resize(cluster_.tracker_count());
  fault_state_.resize(cluster_.tracker_count());
  map_outputs_.resize(cluster_.tracker_count());
  elastic_state_.resize(cluster_.tracker_count());
  tracker_epoch_.resize(cluster_.tracker_count());
  live_trackers_ = cluster_.tracker_count();
  elastic_on_ = config_.elasticity.any_enabled();
  if (config_.admission.enabled()) {
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, &job_tracker_, config_.cluster.total_slots());
  }
  // fail_workflow (attempt budgets) and shed_workflow both sweep the
  // per-workflow attempt index; maintain it iff either can run.
  index_by_workflow_ =
      config_.faults.max_attempts > 0 ||
      config_.admission.policy == AdmissionPolicy::kShedLatestDeadlineFirst;
  current_capacity_[0] = config_.cluster.total_map_slots();
  current_capacity_[1] = config_.cluster.total_reduce_slots();
  events_.set_time_source([this] { return sim_.now(); });
  job_tracker_.set_event_bus(&events_);
  scheduler_->attach(&job_tracker_);
  scheduler_->observe(&events_, nullptr);
  scheduler_->on_cluster_configured(config_.cluster.total_map_slots(),
                                    config_.cluster.total_reduce_slots());
}

void Engine::set_metrics_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (!registry) {
    handles_ = MetricHandles{};
    cluster_.set_slot_gauges(nullptr, nullptr);
    scheduler_->observe(&events_, nullptr);
    return;
  }
  // 100 ns .. ~1.6 s in 4x steps: covers a no-op select through a full
  // plan-regeneration heartbeat.
  auto latency_buckets = [] { return obs::exponential_buckets(100.0, 4.0, 12); };
  handles_.heartbeat_ns =
      &registry->histogram("engine.heartbeat_service_ns", latency_buckets());
  handles_.select_ns =
      &registry->histogram("engine.select_task_ns", latency_buckets());
  handles_.heartbeats = &registry->counter("engine.heartbeats");
  handles_.heartbeats_parked = &registry->counter("engine.heartbeats_parked");
  handles_.tasks_started = &registry->counter("engine.tasks_started");
  handles_.tasks_finished = &registry->counter("engine.tasks_finished");
  handles_.tasks_failed = &registry->counter("engine.tasks_failed");
  handles_.attempts_killed = &registry->counter("engine.attempts_killed");
  handles_.tracker_crashes = &registry->counter("engine.tracker_crashes");
  handles_.speculative_launched =
      &registry->counter("engine.speculative_launched");
  handles_.workflows_rejected = &registry->counter("admission.rejected");
  handles_.workflows_shed = &registry->counter("shed.workflows");
  handles_.decommissions = &registry->counter("cluster.decommissions");
  handles_.preemptions = &registry->counter("cluster.preemptions");
  handles_.joins = &registry->counter("cluster.joins");
  handles_.pending_workflows = &registry->gauge("overload.pending");
  handles_.pending_peak = &registry->gauge("overload.pending_peak");
  cluster_.set_slot_gauges(&registry->gauge("cluster.free_map_slots"),
                           &registry->gauge("cluster.free_reduce_slots"));
  scheduler_->observe(&events_, registry);
}

void Engine::set_task_observer(std::function<void(const TaskEvent&)> observer) {
  if (task_observer_subscription_ != 0) {
    events_.unsubscribe(task_observer_subscription_);
    task_observer_subscription_ = 0;
  }
  if (!observer) return;
  task_observer_subscription_ = events_.subscribe(
      [cb = std::move(observer)](const obs::Event& e) {
        if (const auto* s = std::get_if<obs::TaskStarted>(&e.payload)) {
          cb(TaskEvent{e.time, WorkflowId(s->workflow),
                       JobRef{s->workflow, s->job}, s->slot, true, false, false,
                       s->speculative, 0});
        } else if (const auto* f = std::get_if<obs::TaskEnded>(&e.payload)) {
          cb(TaskEvent{e.time, WorkflowId(f->workflow),
                       JobRef{f->workflow, f->job}, f->slot, false, f->failed,
                       f->killed, f->speculative, f->ran_for});
        }
      });
}

void Engine::submit(wf::WorkflowSpec spec) {
  if (started_) throw std::logic_error("Engine::submit after run()");
  wf::validate(spec);
  pending_submissions_.push_back(std::move(spec));
}

Duration Engine::actual_duration(Duration estimated) {
  double d = static_cast<double>(estimated) * config_.duration_scale;
  if (config_.duration_jitter_sigma > 0.0) {
    // Log-normal multiplicative noise with median 1: durations stay
    // positive and the estimate is the median of the actual distribution.
    d *= rng_.log_normal(0.0, config_.duration_jitter_sigma);
  }
  return std::max<Duration>(1, static_cast<Duration>(std::llround(d)));
}

void Engine::run() {
  if (started_) throw std::logic_error("Engine::run called twice");
  started_ = true;

  const std::size_t expected_workflows = pending_submissions_.size();
  if (expected_workflows == 0) return;  // nothing to run

  // Hand the scheduler the full submission list before the first event so
  // it can precompute (WOHA's parallel plan prewarm). Only when admission
  // control is off: every spec is then guaranteed to reach
  // on_workflow_submitted, keeping cache tallies identical to serial.
  if (!admission_) scheduler_->on_pending_submissions(pending_submissions_);

  // Schedule workflow submissions.
  for (auto& spec : pending_submissions_) {
    const SimTime at = std::max<SimTime>(0, spec.submit_time);
    first_submit_ = std::min(first_submit_, at);
    sim_.schedule_at(at, [this, spec = std::move(spec)]() mutable {
      do_submit(std::move(spec));
    });
  }
  pending_submissions_.clear();

  // Fault-injection schedule: explicit outages plus MTBF-driven crashes.
  // Fault RNG streams are independent of rng_, so enabling churn never
  // perturbs task-duration or locality draws.
  if (config_.faults.churn_enabled()) {
    for (const TrackerFaultEvent& ev : config_.faults.events) {
      sim_.schedule_at(ev.crash_time, [this, ev]() {
        crash_tracker(ev.tracker, ev.restart_time);
      });
    }
    if (config_.faults.tracker_mtbf > 0.0) {
      fault_rng_root_ = Rng(config_.faults.seed);
      tracker_fault_rngs_.reserve(cluster_.tracker_count());
      for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
        tracker_fault_rngs_.push_back(fault_rng_root_.split());
      }
      for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
        schedule_next_mtbf_crash(i);
      }
    }
  }

  // Elastic-membership schedule: decommissions, preemption waves, joins,
  // and the autoscaler tick. None of this consumes rng_ draws, so enabling
  // elasticity never perturbs task-duration or locality sequences.
  if (elastic_on_) {
    last_capacity_change_ = first_submit_ == kTimeInfinity ? 0 : first_submit_;
    for (const TrackerDecommissionEvent& d : config_.elasticity.decommissions) {
      sim_.schedule_at(d.start_time, [this, d]() {
        begin_decommission(d.tracker, d.drain_lease);
      });
    }
    for (const PreemptionWave& w : config_.elasticity.preemption_waves) {
      sim_.schedule_at(w.time, [this, w]() { preemption_wave(w); });
    }
    for (const TrackerJoinEvent& j : config_.elasticity.joins) {
      ++pending_joins_;
      sim_.schedule_at(j.time, [this, j]() {
        --pending_joins_;
        join_trackers(j.count);
      });
    }
    if (config_.elasticity.autoscaler.enabled) {
      const Duration period = config_.elasticity.autoscaler.check_period;
      sim_.schedule_every(period, period, [this]() { autoscale_tick(); });
    }
  }

  // Heartbeat loops, staggered so the master sees a steady request stream.
  const Duration hb = config_.cluster.heartbeat_period;
  hb_.resize(cluster_.tracker_count());
  for (std::size_t i = 0; i < cluster_.tracker_count(); ++i) {
    const SimTime first =
        config_.cluster.stagger_heartbeats
            ? static_cast<SimTime>((static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(hb)) /
                                   cluster_.tracker_count())
            : 0;
    hb_[i].event = sim_.schedule_every(first, hb, [this, i]() { heartbeat_tick(i); });
  }
  // The heartbeat events above repeat forever; run with a stop condition:
  // when no workflow is active and no submission is pending, request stop.
  // We piggyback the check on every event via a small watcher loop.
  while (true) {
    if (!sim_.step(config_.horizon)) break;
    if (job_tracker_.workflow_count() + workflows_rejected_ == expected_workflows &&
        job_tracker_.active_workflows() == 0) {
      break;  // all submitted workflows finished (or failed, or were refused)
    }
    if (live_trackers_ == 0 && pending_restarts_ == 0 && pending_joins_ == 0 &&
        !config_.elasticity.autoscaler.enabled) {
      // Every tracker is down and none will come back: no event can make
      // progress, so stop instead of heartbeating an empty cluster forever.
      WOHA_LOG(LogLevel::kWarn, "engine")
          << "t=" << sim_.now() << " cluster permanently dead; stopping run";
      break;
    }
  }
  // Trackers still parked at the end skipped firings nobody settled yet.
  for (std::size_t i = 0; i < hb_.size(); ++i) settle_parked(i);
}

void Engine::do_submit(wf::WorkflowSpec spec) {
  ++workflows_submitted_;
  if (admission_) {
    const AdmissionDecision decision = admission_->decide(spec, sim_.now());
    if (!decision.admit) {
      ++workflows_rejected_;
      if (handles_.workflows_rejected) handles_.workflows_rejected->add();
      WOHA_LOG(LogLevel::kInfo, "engine")
          << "t=" << sim_.now() << " REJECT workflow '" << spec.name << "' ("
          << decision.reason << ")";
      WorkflowResult r;
      r.name = spec.name;
      r.submit_time = sim_.now();
      r.deadline = spec.relative_deadline > 0 ? sim_.now() + spec.relative_deadline
                                              : kTimeInfinity;
      r.rejected = true;
      if (events_.active()) {
        events_.publish(sim_.now(),
                        obs::WorkflowRejected{
                            static_cast<std::uint32_t>(workflows_submitted_ - 1),
                            spec.name, r.deadline, decision.reason});
      }
      rejected_results_.push_back(std::move(r));
      return;
    }
  }
  const WorkflowId id = job_tracker_.add_workflow(std::move(spec), sim_.now());
  WorkflowRuntime& wf_rt = job_tracker_.workflow(id);
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " submit workflow " << id.value() << " ('"
      << wf_rt.spec().name << "', deadline=" << wf_rt.deadline() << ")";
  scheduler_->on_workflow_submitted(id, sim_.now());
  // Initially runnable jobs go through the same activation path as unlocked
  // dependents (submitter map task latency).
  for (std::uint32_t j : wf::initial_jobs(wf_rt.spec())) {
    const JobRef ref{id.value(), j};
    wf_rt.job(j).mark_activating();
    sim_.schedule_after(config_.activation_latency,
                        [this, ref]() { activate_job(ref); });
  }
  if (admission_) enforce_pending_budget();
  // Pending-set accounting (cheap: two compares), kept even without
  // admission so the admit-all baseline of the rho sweep reports its
  // (unbounded) pending_peak.
  const std::uint32_t pending = job_tracker_.active_workflows();
  pending_peak_ = std::max(pending_peak_, pending);
  if (handles_.pending_workflows) {
    handles_.pending_workflows->set(static_cast<double>(pending));
    handles_.pending_peak->set(static_cast<double>(pending_peak_));
  }
}

void Engine::enforce_pending_budget() {
  const AdmissionConfig& ac = admission_->config();
  if (ac.policy != AdmissionPolicy::kShedLatestDeadlineFirst) return;
  while (job_tracker_.active_workflows() > ac.max_pending_workflows) {
    const std::optional<std::uint32_t> victim = admission_->pick_shed_victim();
    if (!victim) break;
    shed_workflow(*victim, sim_.now());
  }
}

void Engine::shed_workflow(std::uint32_t workflow, SimTime now) {
  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(workflow));
  if (wf_rt.failed() || wf_rt.finished()) return;
  WOHA_LOG(LogLevel::kWarn, "engine")
      << "t=" << now << " SHED workflow " << workflow << " (deadline="
      << wf_rt.deadline() << ", pending budget "
      << config_.admission.max_pending_workflows << " exceeded)";
  wf_rt.mark_shed(now);
  ++workflows_shed_;
  if (handles_.workflows_shed) handles_.workflows_shed->add();

  // Kill its remaining attempts, exactly like fail_workflow's sweep.
  std::vector<std::uint64_t> victims;
  for (auto it = attempts_by_workflow_.lower_bound({workflow, 0, 0});
       it != attempts_by_workflow_.end() && std::get<0>(*it) == workflow; ++it) {
    victims.push_back(std::get<2>(*it));
  }
  for (const std::uint64_t id : victims) {
    const std::size_t t = attempts_.at(id).tracker;
    const TrackerFaultState& fs = fault_state_[t];
    const Attempt a =
        kill_attempt(id, fs.dead ? fs.crash_time : now, obs::KillCause::kShed);
    if (a.rival != 0) {
      if (Attempt* rival = attempts_.find(a.rival)) {
        rival->rival = 0;
        spec_candidate_add(a.rival, *rival);
      }
    }
  }
  if (events_.active()) {
    events_.publish(now, obs::WorkflowShed{workflow, wf_rt.deadline(),
                                           static_cast<std::uint32_t>(victims.size())});
  }
  workflow_ended();
  scheduler_->on_workflow_failed(WorkflowId(workflow), now);
}

void Engine::activate_job(JobRef ref) {
  // The workflow may have failed while the submitter task was loading.
  if (job_tracker_.workflow(WorkflowId(ref.workflow)).failed()) return;
  JobInProgress& job = job_tracker_.job(ref);
  job.mark_active(sim_.now());
  WOHA_LOG(LogLevel::kDebug, "engine")
      << "t=" << sim_.now() << " activate job w" << ref.workflow << "/j" << ref.job
      << " ('" << job.spec().name << "')";
  if (events_.active()) {
    events_.publish(sim_.now(), obs::JobActivated{ref.workflow, ref.job});
  }
  scheduler_->on_job_activated(ref, sim_.now());
}

void Engine::heartbeat(std::size_t tracker_index) {
  TrackerState& tracker = cluster_.tracker(tracker_index);
  if (!tracker.alive()) return;  // dead nodes do not heartbeat
  // Draining nodes keep running what they have but take no new work, so
  // their heartbeats schedule nothing (they are off the freelists anyway;
  // skipping here also keeps speculation off the leaving node).
  if (elastic_on_ && elastic_state_[tracker_index].draining) return;

  // Wall-clock service time is only measured with a registry attached; the
  // clock reads themselves are part of the cost we promise to avoid (the
  // timer never touches the clock when the histogram handle is null).
  const obs::ScopedTimer hb_timer(handles_.heartbeat_ns);

  // Per-job blacklisting: the offered slot carries an eligibility filter so
  // a blacklisted job can still run elsewhere but never again on this node.
  const std::function<bool(JobRef)>* filter = nullptr;
  heartbeat_tracker_ = tracker_index;  // retargets blacklist_filter_ and start_sink_
  if (!blacklist_.empty()) {
    if (!blacklist_filter_) {
      blacklist_filter_ = [this](JobRef ref) {
        return !blacklisted(ref, heartbeat_tracker_);
      };
    }
    filter = &blacklist_filter_;
  }
  if (!start_sink_) {
    start_sink_ = [this](JobRef ref) {
      start_task(ref, heartbeat_slot_type_, heartbeat_tracker_);
    };
  }

  // Offer every idle slot on this tracker; maps first (Hadoop-1's
  // assignTasks fills map slots before reduce slots). All same-type slots
  // go out as ONE batched consult: select_tasks is contractually
  // decision-equivalent to the sequential consult-start loop this replaces,
  // and the start sink runs start_task between picks exactly where the old
  // loop did.
  std::uint32_t assigned[2] = {0, 0};
  for (const SlotType type : {SlotType::kMap, SlotType::kReduce}) {
    const auto ti = static_cast<std::size_t>(type);
    const std::uint32_t limit = tracker.free_slots(type);
    if (limit > 0) {
      heartbeat_slot_type_ = type;  // retargets start_sink_
      const SlotOffer offer{type, tracker_index, filter};
      std::chrono::steady_clock::time_point t0;
      if (handles_.select_ns) t0 = std::chrono::steady_clock::now();
      const std::uint32_t started =
          scheduler_->select_tasks(offer, limit, start_sink_, sim_.now());
      if (handles_.select_ns) {
        handles_.select_ns->observe(std::chrono::duration<double, std::nano>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
      }
      // One batched consult stands for `started` successful sequential
      // consults plus, when the batch under-filled, the final empty one —
      // the select_calls tally stays bit-identical to an unbatched run.
      select_calls_ += started + (started < limit ? 1 : 0);
      assigned[ti] += started;
    }
    // Slots no pending task wants may still host speculative backups.
    if (config_.faults.speculative_execution) {
      while (tracker.free_slots(type) > 0 && try_speculate(type, tracker_index)) {
        ++assigned[static_cast<std::size_t>(type)];
      }
    }
  }

  if (handles_.heartbeats) handles_.heartbeats->add();
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::HeartbeatServed{tracker_index, assigned[0], assigned[1],
                                         tracker.free_slots(SlotType::kMap),
                                         tracker.free_slots(SlotType::kReduce)});
  }
  park_if_idle(tracker_index);
}

void Engine::heartbeat_tick(std::size_t tracker_index) {
  settle_parked(tracker_index);
  // Stop heartbeating once everything finished, so run() terminates.
  if (job_tracker_.active_workflows() == 0 && job_tracker_.workflow_count() > 0) {
    return;
  }
  heartbeat(tracker_index);
}

void Engine::park_if_idle(std::size_t tracker_index) {
  if (!config_.park_idle_heartbeats) return;
  const TrackerState& tracker = cluster_.tracker(tracker_index);
  const bool map_free = tracker.free_slots(SlotType::kMap) > 0;
  const bool reduce_free = tracker.free_slots(SlotType::kReduce) > 0;
  const std::uint64_t* available = nullptr;
  if (map_free || reduce_free) {
    // A free slot stays idle while no job anywhere has a task for its type:
    // every scheduler then answers the offer empty without touching its
    // state. Speculation can fill a free slot regardless, and a blacklist
    // filter makes the answer tracker-specific; both keep the tracker
    // awake.
    if (config_.faults.speculative_execution || !blacklist_.empty()) return;
    if (map_free && job_tracker_.available_jobs(SlotType::kMap) > 0) return;
    if (reduce_free && job_tracker_.available_jobs(SlotType::kReduce) > 0) return;
    // Watched while it reads 0: the tracker wakes only if work exists at
    // one of its firings, not on every rise that others drain first.
    available = map_free && reduce_free
                    ? job_tracker_.available_jobs_total()
                    : job_tracker_.available_jobs_counter(map_free ? SlotType::kMap
                                                                   : SlotType::kReduce);
  }
  HeartbeatPark& hb = hb_[tracker_index];
  hb.offers = static_cast<std::uint8_t>((map_free ? 1 : 0) + (reduce_free ? 1 : 0));
  hb.parked = true;
  sim_.park(hb.event, &tracker_epoch_[tracker_index], available);
}

void Engine::settle_parked(std::size_t tracker_index) {
  HeartbeatPark& hb = hb_[tracker_index];
  if (!hb.parked) return;
  hb.parked = false;
  // Each skipped firing stands for a served heartbeat that offered the
  // same slot types, was answered empty and started nothing.
  const std::uint64_t skipped = sim_.skipped(hb.event);
  select_calls_ += skipped * hb.offers;
  if (handles_.heartbeats) {
    handles_.heartbeats->add(skipped);
    handles_.heartbeats_parked->add(skipped);
  }
}

void Engine::wake_all() {
  for (std::uint64_t& epoch : tracker_epoch_) ++epoch;
}

void Engine::workflow_ended() {
  job_tracker_.count_workflow_finished();
  // With nothing left active, heartbeats return before serving anything
  // (see heartbeat_tick), so skipped firings would no longer stand for
  // served ones.
  if (job_tracker_.active_workflows() == 0) wake_all();
}

bool Engine::map_is_local(JobRef ref, std::size_t tracker_index) {
  // Randomized HDFS placement: each map attempt's split has
  // `hdfs_replication` replicas on uniformly random trackers. We draw the
  // replica set lazily per attempt rather than materializing a block map —
  // statistically equivalent for uniform placement, and it keeps memory
  // flat for huge jobs.
  (void)ref;
  const std::size_t n = cluster_.tracker_count();
  for (std::uint32_t r = 0; r < config_.hdfs_replication; ++r) {
    if (static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1)) == tracker_index) {
      return true;
    }
  }
  return false;
}

Duration Engine::draw_attempt(JobRef ref, SlotType type, std::size_t tracker_index,
                              bool& will_fail) {
  // The draw order below (jitter, locality, failure) replays the exact
  // pre-fault-model RNG sequence: with faults disabled, runs stay
  // bit-identical to builds that predate the fault subsystem.
  const JobInProgress& job = job_tracker_.job(ref);
  const Duration est =
      type == SlotType::kMap ? job.spec().map_duration : job.spec().reduce_duration;
  Duration dur = actual_duration(est);
  if (type == SlotType::kMap) {
    ++total_maps_;
    if (config_.remote_map_penalty > 1.0 && !map_is_local(ref, tracker_index)) {
      dur = static_cast<Duration>(
          std::llround(static_cast<double>(dur) * config_.remote_map_penalty));
    } else {
      ++local_maps_;
    }
  }

  // Failure injection: the attempt dies at a uniformly random point of its
  // execution, holding (and wasting) the slot until then.
  will_fail = false;
  if (config_.task_failure_prob > 0.0 && rng_.chance(config_.task_failure_prob)) {
    will_fail = true;
    dur = std::max<Duration>(1, static_cast<Duration>(
                                    static_cast<double>(dur) * rng_.uniform()));
  }
  return dur;
}

void Engine::start_task(JobRef ref, SlotType type, std::size_t tracker_index) {
  JobInProgress& job = job_tracker_.job(ref);
  if (!job.has_available(type)) {
    throw std::logic_error("Engine: scheduler returned job without available " +
                           std::string(to_string(type)) + " task (" +
                           scheduler_->name() + ")");
  }
  const std::uint32_t retry_level = job.start_task(type);
  cluster_.occupy(tracker_index, type);
  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(ref.workflow));
  wf_rt.count_scheduled_task();
  ++tasks_executed_;

  bool will_fail = false;
  const Duration dur = draw_attempt(ref, type, tracker_index, will_fail);
  busy_ms_[static_cast<std::size_t>(type)] += static_cast<double>(dur);
  if (handles_.tasks_started) handles_.tasks_started->add();

  const std::uint64_t id = next_attempt_id_++;
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TaskStarted{id, ref.workflow, ref.job, type,
                                                 tracker_index, dur, false});
  }
  Attempt attempt{ref,      type,      tracker_index, sim_.now(), dur,
                  retry_level, will_fail, false,         0,          {}};
  attempt.finish_event =
      sim_.schedule_after(dur, [this, id]() { finish_attempt(id); });
  index_attempt_add(id, attempt);
  attempts_.emplace(id, std::move(attempt));
  tracker_attempts_[tracker_index].push_back(id);
}

void Engine::index_attempt_add(std::uint64_t id, const Attempt& a) {
  if (index_by_workflow_) {
    attempts_by_workflow_.emplace(a.ref.workflow, a.tracker, id);
  }
  spec_candidate_add(id, a);
}

void Engine::index_attempt_remove(std::uint64_t id, const Attempt& a) {
  if (index_by_workflow_) {
    attempts_by_workflow_.erase({a.ref.workflow, a.tracker, id});
  }
  spec_candidate_remove(id, a);
}

void Engine::spec_candidate_add(std::uint64_t id, const Attempt& a) {
  if (!config_.faults.speculative_execution) return;
  if (a.speculative || a.rival != 0) return;
  spec_candidates_[static_cast<std::size_t>(a.type)].emplace(a.tracker, id);
}

void Engine::spec_candidate_remove(std::uint64_t id, const Attempt& a) {
  // Mirror of spec_candidate_add: callers invoke it with the attempt state
  // as of insertion time (rival still 0), so ineligible attempts were
  // simply never in the set.
  if (!config_.faults.speculative_execution) return;
  if (a.speculative || a.rival != 0) return;
  spec_candidates_[static_cast<std::size_t>(a.type)].erase({a.tracker, id});
}

void Engine::finish_attempt(std::uint64_t attempt_id) {
  if (!attempts_.contains(attempt_id)) {
    throw std::logic_error("Engine: finish event for unknown attempt");
  }
  const Attempt a = attempts_.take(attempt_id);
  index_attempt_remove(attempt_id, a);
  std::erase(tracker_attempts_[a.tracker], attempt_id);
  cluster_.release(a.tracker, a.type);
  wake(a.tracker);
  maybe_complete_drain(a.tracker);
  JobInProgress& job = job_tracker_.job(a.ref);

  const auto publish_ended = [&](bool failed) {
    if (!events_.active()) return;
    events_.publish(sim_.now(),
                    obs::TaskEnded{attempt_id, a.ref.workflow, a.ref.job, a.type,
                                   a.tracker, failed, false, a.speculative,
                                   a.duration});
  };

  if (a.will_fail) {
    ++tasks_failed_;
    if (handles_.tasks_failed) handles_.tasks_failed->add();
    record_attempt_failure(a.ref, a.tracker);
    if (a.rival != 0) {
      // The speculation twin keeps running the task alone; this failure
      // burns an attempt but re-queues nothing.
      if (Attempt* rival = attempts_.find(a.rival)) {
        rival->rival = 0;
        spec_candidate_add(a.rival, *rival);
      }
      publish_ended(true);
      return;
    }
    if (config_.faults.max_attempts > 0 &&
        a.retry_level + 1 >= config_.faults.max_attempts) {
      publish_ended(true);
      fail_workflow(a.ref.workflow, sim_.now());
      return;
    }
    job.fail_task(a.type, a.retry_level + 1);
    scheduler_->on_task_finished(a.ref, a.type, sim_.now());
    publish_ended(true);
    // The task re-enters the pending pool; the next heartbeat with a free
    // slot may schedule a fresh attempt (Hadoop's retry behaviour).
    return;
  }

  // Success. A speculation race has a winner: kill the loser (first finish
  // wins, Hadoop's speculative-execution contract).
  if (a.rival != 0) {
    const Attempt& loser_ref = attempts_.at(a.rival);
    const TrackerFaultState& loser_fs = fault_state_[loser_ref.tracker];
    const SimTime stop = loser_fs.dead ? loser_fs.crash_time : sim_.now();
    const Attempt loser =
        kill_attempt(a.rival, stop, obs::KillCause::kSpeculationRace);
    speculative_wasted_ms_ +=
        static_cast<double>(std::max<Duration>(0, stop - loser.start_time));
    if (a.speculative) ++speculative_won_;
  }

  // Hadoop-1 stores map outputs on the slave's local disk until the job's
  // reduces fetch them; remember where they live so a node loss can
  // invalidate them. Map-only jobs commit straight to HDFS — nothing to
  // track.
  if (a.type == SlotType::kMap && config_.faults.churn_enabled() &&
      job.spec().num_reduces > 0) {
    ++map_outputs_[a.tracker][a.ref];
  }

  const bool job_done = job.finish_task(a.type, sim_.now());
  if (handles_.tasks_finished) handles_.tasks_finished->add();
  scheduler_->on_task_finished(a.ref, a.type, sim_.now());
  publish_ended(false);
  if (!job_done) return;

  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(a.ref.workflow));
  WOHA_LOG(LogLevel::kDebug, "engine")
      << "t=" << sim_.now() << " job w" << a.ref.workflow << "/j" << a.ref.job
      << " complete";
  if (events_.active()) {
    events_.publish(sim_.now(), obs::JobCompleted{a.ref.workflow, a.ref.job});
  }
  const auto unlocked = wf_rt.on_job_complete(a.ref.job, sim_.now());
  scheduler_->on_job_completed(a.ref, sim_.now());
  for (std::uint32_t j : unlocked) {
    const JobRef dep{a.ref.workflow, j};
    wf_rt.job(j).mark_activating();
    sim_.schedule_after(config_.activation_latency,
                        [this, dep]() { activate_job(dep); });
  }
  if (wf_rt.finished()) {
    workflow_ended();
    WOHA_LOG(LogLevel::kInfo, "engine")
        << "t=" << sim_.now() << " workflow " << a.ref.workflow << " finished"
        << (wf_rt.finish_time() <= wf_rt.deadline() ? " (deadline met)"
                                                    : " (DEADLINE MISSED)");
    if (events_.active()) {
      events_.publish(sim_.now(),
                      obs::WorkflowCompleted{
                          a.ref.workflow,
                          wf_rt.finish_time() <= wf_rt.deadline()});
    }
    scheduler_->on_workflow_completed(WorkflowId(a.ref.workflow), sim_.now());
  }
}

Engine::Attempt Engine::kill_attempt(std::uint64_t attempt_id, SimTime stop_time,
                                     obs::KillCause cause) {
  Attempt a = attempts_.take(attempt_id);
  a.finish_event.cancel();
  index_attempt_remove(attempt_id, a);
  std::erase(tracker_attempts_[a.tracker], attempt_id);
  cluster_.release(a.tracker, a.type);
  wake(a.tracker);
  maybe_complete_drain(a.tracker);
  // Busy time was charged for the full scheduled duration at start; refund
  // the part that never executed.
  const Duration executed = std::max<Duration>(0, stop_time - a.start_time);
  busy_ms_[static_cast<std::size_t>(a.type)] -=
      static_cast<double>(a.duration - executed);
  ++attempts_killed_;
  if (handles_.attempts_killed) handles_.attempts_killed->add();
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::TaskEnded{attempt_id, a.ref.workflow, a.ref.job, a.type,
                                   a.tracker, false, true, a.speculative,
                                   executed, cause});
  }
  return a;
}

void Engine::crash_tracker(std::size_t tracker_index, SimTime restart_time) {
  TrackerFaultState& fs = fault_state_[tracker_index];
  if (fs.dead) return;  // overlapping schedules collapse into one outage
  // A retired (decommissioned/preempted) node no longer exists to crash. A
  // *draining* node can still crash: the crash machinery then owns it, and
  // the pending drain-expiry event sees fs.dead and stands down.
  if (elastic_state_[tracker_index].retired) return;
  fs.dead = true;
  fs.detected = false;
  fs.crash_time = sim_.now();
  ++fs.epoch;
  cluster_.mark_dead(tracker_index);
  wake(tracker_index);
  --live_trackers_;
  ++tracker_crashes_;
  if (handles_.tracker_crashes) handles_.tracker_crashes->add();
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TrackerCrashed{tracker_index, restart_time});
  }
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " tracker " << tracker_index << " crashed"
      << (restart_time == kTimeInfinity
              ? std::string(" (no restart)")
              : " (restart at " + std::to_string(restart_time) + ")");

  // The node stops executing instantly, but the master stays oblivious: the
  // attempts remain in the running tables until the lease expires or the
  // node re-registers. Their finish events must never fire, though.
  for (const std::uint64_t id : tracker_attempts_[tracker_index]) {
    attempts_.at(id).finish_event.cancel();
  }

  const std::uint64_t epoch = fs.epoch;
  sim_.schedule_after(config_.faults.expiry_interval, [this, tracker_index, epoch]() {
    if (fault_state_[tracker_index].epoch == epoch) {
      detect_tracker_loss(tracker_index);
    }
  });
  if (restart_time != kTimeInfinity) {
    ++pending_restarts_;
    sim_.schedule_at(restart_time, [this, tracker_index, epoch]() {
      if (fault_state_[tracker_index].epoch == epoch) {
        restart_tracker(tracker_index);
      }
    });
  }
}

void Engine::restart_tracker(std::size_t tracker_index) {
  TrackerFaultState& fs = fault_state_[tracker_index];
  if (!fs.dead) return;
  // Re-registration tells the master about the loss immediately, even if
  // the lease has not expired yet (Hadoop treats a re-registering tracker
  // as a fresh node with empty disks).
  detect_tracker_loss(tracker_index);
  fs.dead = false;
  cluster_.activate(tracker_index);
  wake(tracker_index);
  // Re-registration makes the node a fresh worker: a drain that was in
  // flight when it crashed is forgotten (mirrors Cluster::activate), and
  // any stale drain-expiry event dies on the epoch bump.
  TrackerElasticState& es = elastic_state_[tracker_index];
  es.draining = false;
  es.preempting = false;
  ++es.epoch;
  ++live_trackers_;
  --pending_restarts_;
  const TrackerState& ts = cluster_.tracker(tracker_index);
  account_capacity_change(static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
                          static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
  if (events_.active()) {
    events_.publish(sim_.now(), obs::TrackerRestarted{tracker_index});
  }
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " tracker " << tracker_index << " re-registered";
  if (config_.faults.tracker_mtbf > 0.0) schedule_next_mtbf_crash(tracker_index);
}

void Engine::detect_tracker_loss(std::size_t tracker_index) {
  TrackerFaultState& fs = fault_state_[tracker_index];
  if (!fs.dead || fs.detected) return;
  fs.detected = true;
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " tracker " << tracker_index
      << " declared lost (crashed at " << fs.crash_time << ")";

  // Kill every attempt that was running there. KILLED, not FAILED: node
  // loss never counts against the task's attempt budget.
  const std::vector<std::uint64_t> ids = tracker_attempts_[tracker_index];
  const auto killed_here = static_cast<std::uint32_t>(ids.size());
  std::uint32_t outputs_lost_here = 0;
  for (const std::uint64_t id : ids) {
    const Attempt a = kill_attempt(id, fs.crash_time, obs::KillCause::kNodeLoss);
    if (a.rival != 0) {
      // The task lives on in its speculation twin — nothing to re-queue.
      if (Attempt* rival = attempts_.find(a.rival)) {
        rival->rival = 0;
        spec_candidate_add(a.rival, *rival);
      }
      continue;
    }
    JobInProgress& job = job_tracker_.job(a.ref);
    job.requeue_running(a.type, a.retry_level);
    scheduler_->on_task_finished(a.ref, a.type, sim_.now());
    scheduler_->on_tasks_lost(a.ref, a.type, 1, sim_.now());
  }

  // Invalidate completed map outputs stranded on the node's local disk:
  // unfetched partitions are gone, so those maps re-execute from scratch
  // (fresh tasks — re-execution is not a retry).
  for (const auto& [ref, count] : map_outputs_[tracker_index]) {
    WorkflowRuntime& w = job_tracker_.workflow(WorkflowId(ref.workflow));
    if (w.finished() || w.failed()) continue;
    JobInProgress& job = job_tracker_.job(ref);
    if (job.complete() || job.state() == JobState::kFailed) continue;
    job.invalidate_finished_maps(count);
    map_outputs_lost_ += count;
    outputs_lost_here += count;
    scheduler_->on_tasks_lost(ref, SlotType::kMap, count, sim_.now());
  }
  map_outputs_[tracker_index].clear();
  cluster_.deactivate(tracker_index);
  wake(tracker_index);
  {
    const TrackerState& ts = cluster_.tracker(tracker_index);
    account_capacity_change(
        -static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
        -static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
  }
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::TrackerLost{tracker_index, fs.crash_time, killed_here,
                                     outputs_lost_here});
  }
}

void Engine::fail_workflow(std::uint32_t workflow, SimTime now) {
  WorkflowRuntime& wf_rt = job_tracker_.workflow(WorkflowId(workflow));
  if (wf_rt.failed() || wf_rt.finished()) return;
  WOHA_LOG(LogLevel::kWarn, "engine")
      << "t=" << now << " workflow " << workflow
      << " FAILED (task exhausted max_attempts="
      << config_.faults.max_attempts << ")";
  wf_rt.mark_failed(now);
  ++workflows_failed_;
  if (events_.active()) {
    events_.publish(now, obs::WorkflowFailed{workflow});
  }

  // Kill the workflow's remaining attempts everywhere. The (workflow,
  // tracker, attempt) index yields them in exactly the order the old
  // full-cluster sweep did — trackers ascending, launch order within a
  // tracker — without touching the other 9,999 trackers' lists. Collect
  // first: kill_attempt mutates the index.
  std::vector<std::uint64_t> victims;
  for (auto it = attempts_by_workflow_.lower_bound({workflow, 0, 0});
       it != attempts_by_workflow_.end() && std::get<0>(*it) == workflow; ++it) {
    victims.push_back(std::get<2>(*it));
  }
  for (const std::uint64_t id : victims) {
    const std::size_t t = attempts_.at(id).tracker;
    const TrackerFaultState& fs = fault_state_[t];
    const Attempt a = kill_attempt(id, fs.dead ? fs.crash_time : now,
                                   obs::KillCause::kWorkflowFailed);
    if (a.rival != 0) {
      if (Attempt* rival = attempts_.find(a.rival)) {
        rival->rival = 0;
        spec_candidate_add(a.rival, *rival);
      }
    }
  }
  workflow_ended();
  scheduler_->on_workflow_failed(WorkflowId(workflow), now);
}

void Engine::record_attempt_failure(JobRef ref, std::size_t tracker_index) {
  if (config_.faults.blacklist_task_failures == 0) return;
  const auto key = std::make_pair(ref, tracker_index);
  if (++job_tracker_failures_[key] < config_.faults.blacklist_task_failures) return;
  // Hadoop-1 caps per-job blacklisting at 25% of the cluster (JobInProgress
  // CLUSTER_BLACKLIST_PERCENT) so a flaky job can never starve itself of
  // every tracker. Always leave the majority of nodes usable.
  const std::size_t cap =
      std::max<std::size_t>(1, cluster_.tracker_count() / 4);
  std::size_t already = 0;
  for (const auto& entry : blacklist_) already += entry.first == ref;
  if (already < cap && blacklist_.insert(key).second) {
    // Offers now carry an eligibility filter; no idle heartbeat skipped on
    // the assumption of an unfiltered consult may stay parked.
    wake_all();
    ++blacklistings_;
    WOHA_LOG(LogLevel::kInfo, "engine")
        << "t=" << sim_.now() << " tracker " << tracker_index
        << " blacklisted for job w" << ref.workflow << "/j" << ref.job;
  }
}

bool Engine::try_speculate(SlotType type, std::size_t tracker_index) {
  const SimTime now = sim_.now();
  // Deterministic straggler scan over the candidate index: (tracker
  // ascending, launch order within tracker) — the exact order the old
  // every-tracker sweep produced, but visiting only attempts that could
  // actually receive a backup (non-speculative, no rival yet). The
  // duration-based slowness test stands in for Hadoop's progress-rate
  // estimate (the simulator knows the true remaining time); an attempt on a
  // silently-dead node reports no progress at all, which is exactly what
  // LATE flags first — so zombies are always eligible.
  //
  // The pick is copied out of the scan: the candidate-set node holding its
  // id is erased below, and the backup's emplace may reallocate attempts_.
  std::optional<std::pair<std::uint64_t, Attempt>> pick;
  for (const auto& [cand_tracker, id] :
       spec_candidates_[static_cast<std::size_t>(type)]) {
    const Attempt& a = attempts_.at(id);
    if (a.tracker == tracker_index) continue;  // back up on another node
    if (now - a.start_time < config_.faults.speculative_min_runtime) continue;
    const bool zombie = fault_state_[a.tracker].dead;
    if (!zombie) {
      const JobInProgress& job = job_tracker_.job(a.ref);
      const Duration est = type == SlotType::kMap ? job.spec().map_duration
                                                  : job.spec().reduce_duration;
      if (static_cast<double>(a.duration) <=
          config_.faults.speculative_slowness * static_cast<double>(est)) {
        continue;  // not slow enough to bother
      }
      if (now + est >= a.start_time + a.duration) {
        continue;  // a backup would not beat the original anyway
      }
    }
    if (blacklisted(a.ref, tracker_index)) continue;
    pick.emplace(id, a);
    break;
  }
  if (!pick) return false;
  const auto& [id, a] = *pick;

  // Launch the backup. It occupies a slot and burns budget metrics but is
  // NOT new task progress: no job/rho accounting, no select_task.
  cluster_.occupy(tracker_index, type);
  ++tasks_executed_;
  ++speculative_launched_;
  if (handles_.tasks_started) handles_.tasks_started->add();
  if (handles_.speculative_launched) handles_.speculative_launched->add();
  bool will_fail = false;
  const Duration dur = draw_attempt(a.ref, type, tracker_index, will_fail);
  busy_ms_[static_cast<std::size_t>(type)] += static_cast<double>(dur);
  const std::uint64_t backup_id = next_attempt_id_++;
  if (events_.active()) {
    events_.publish(now, obs::SpeculativeLaunched{backup_id, id, a.ref.workflow,
                                                  a.ref.job, type, tracker_index});
    events_.publish(now, obs::TaskStarted{backup_id, a.ref.workflow, a.ref.job,
                                          type, tracker_index, dur, true});
  }
  Attempt backup{a.ref,         type,      tracker_index, now, dur,
                 a.retry_level, will_fail, true,          id,  {}};
  backup.finish_event =
      sim_.schedule_after(dur, [this, backup_id]() { finish_attempt(backup_id); });
  index_attempt_add(backup_id, backup);
  attempts_.emplace(backup_id, std::move(backup));
  tracker_attempts_[tracker_index].push_back(backup_id);
  WOHA_LOG(LogLevel::kDebug, "engine")
      << "t=" << now << " speculative backup for w" << a.ref.workflow << "/j"
      << a.ref.job << " on tracker " << tracker_index;
  // The original now has a rival: retire it from the candidate set.
  spec_candidate_remove(id, a);
  attempts_.at(id).rival = backup_id;
  return true;
}

void Engine::schedule_next_mtbf_crash(std::size_t tracker_index) {
  if (config_.faults.tracker_mtbf <= 0.0) return;
  const double wait =
      tracker_fault_rngs_[tracker_index].exponential(1.0 / config_.faults.tracker_mtbf);
  const Duration delay = std::max<Duration>(1, static_cast<Duration>(std::llround(wait)));
  sim_.schedule_after(delay, [this, tracker_index]() {
    if (!fault_state_[tracker_index].dead &&
        !elastic_state_[tracker_index].retired) {
      crash_tracker(tracker_index,
                    sim_.now() + config_.faults.tracker_restart_delay);
    }
  });
}

// ---- elastic membership -----------------------------------------------------

void Engine::begin_decommission(std::size_t tracker_index, Duration lease) {
  TrackerFaultState& fs = fault_state_[tracker_index];
  TrackerElasticState& es = elastic_state_[tracker_index];
  // Already leaving or down: a decommission of a dead/draining/retired node
  // is a no-op (the operator's intent is already being honoured).
  if (es.retired || es.draining || fs.dead) return;
  cluster_.set_draining(tracker_index);
  wake(tracker_index);
  es.draining = true;
  es.preempting = false;
  ++es.epoch;
  es.lease_deadline = sim_.now() + lease;
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " tracker " << tracker_index
      << " draining (decommission, lease until " << es.lease_deadline << ")";
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::TrackerDraining{tracker_index, es.lease_deadline});
  }
  if (tracker_attempts_[tracker_index].empty()) {
    retire_tracker(tracker_index, 0, false);
    return;
  }
  const std::uint64_t epoch = es.epoch;
  sim_.schedule_at(es.lease_deadline, [this, tracker_index, epoch]() {
    drain_lease_expired(tracker_index, epoch);
  });
}

void Engine::drain_lease_expired(std::size_t tracker_index, std::uint64_t epoch) {
  const TrackerElasticState& es = elastic_state_[tracker_index];
  if (es.epoch != epoch || !es.draining || es.retired) return;
  // Crash won the race mid-drain: lease-expiry loss detection owns the node
  // now (the KILLED + re-queue semantics are the crash path's).
  if (fault_state_[tracker_index].dead) return;
  retire_tracker(tracker_index,
                 migrate_off(tracker_index, obs::KillCause::kDrainMigration),
                 false);
}

void Engine::preempt_terminate(std::size_t tracker_index, std::uint64_t epoch) {
  const TrackerElasticState& es = elastic_state_[tracker_index];
  if (es.epoch != epoch || !es.draining || es.retired) return;
  if (fault_state_[tracker_index].dead) return;  // crashed before the axe fell
  retire_tracker(tracker_index,
                 migrate_off(tracker_index, obs::KillCause::kPreemption), true);
}

std::uint32_t Engine::migrate_off(std::size_t tracker_index,
                                  obs::KillCause cause) {
  // Master-initiated eviction of everything still running on the node:
  // unlike crash loss there is no detection delay, and like crash loss the
  // kills are KILLED (never charged to attempt budgets).
  const std::vector<std::uint64_t> ids = tracker_attempts_[tracker_index];
  const auto migrated = static_cast<std::uint32_t>(ids.size());
  for (const std::uint64_t id : ids) {
    const Attempt a = kill_attempt(id, sim_.now(), cause);
    if (a.rival != 0) {
      // The task lives on in its speculation twin — nothing to re-queue.
      if (Attempt* rival = attempts_.find(a.rival)) {
        rival->rival = 0;
        spec_candidate_add(a.rival, *rival);
      }
      continue;
    }
    JobInProgress& job = job_tracker_.job(a.ref);
    job.requeue_running(a.type, a.retry_level);
    scheduler_->on_task_finished(a.ref, a.type, sim_.now());
    scheduler_->on_tasks_lost(a.ref, a.type, 1, sim_.now());
  }
  drain_migrated_ += migrated;
  return migrated;
}

void Engine::retire_tracker(std::size_t tracker_index, std::uint32_t migrated,
                            bool preempted) {
  // Map outputs stranded on the node's local disk leave with it, exactly as
  // in Hadoop's decommission: completed maps of in-flight jobs re-execute.
  for (const auto& [ref, count] : map_outputs_[tracker_index]) {
    WorkflowRuntime& w = job_tracker_.workflow(WorkflowId(ref.workflow));
    if (w.finished() || w.failed()) continue;
    JobInProgress& job = job_tracker_.job(ref);
    if (job.complete() || job.state() == JobState::kFailed) continue;
    job.invalidate_finished_maps(count);
    map_outputs_lost_ += count;
    scheduler_->on_tasks_lost(ref, SlotType::kMap, count, sim_.now());
  }
  map_outputs_[tracker_index].clear();

  TrackerElasticState& es = elastic_state_[tracker_index];
  es.retired = true;
  es.draining = false;
  es.preempting = false;
  ++es.epoch;  // pending drain-expiry / maybe-complete events go stale
  cluster_.mark_dead(tracker_index);
  cluster_.deactivate(tracker_index);
  wake(tracker_index);
  --live_trackers_;
  const TrackerState& ts = cluster_.tracker(tracker_index);
  account_capacity_change(-static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
                          -static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
  if (preempted) {
    ++preemptions_;
    if (handles_.preemptions) handles_.preemptions->add();
  } else {
    ++decommissions_;
    if (handles_.decommissions) handles_.decommissions->add();
  }
  WOHA_LOG(LogLevel::kInfo, "engine")
      << "t=" << sim_.now() << " tracker " << tracker_index
      << (preempted ? " preempted" : " decommissioned") << " (migrated "
      << migrated << " attempts)";
  if (events_.active()) {
    events_.publish(sim_.now(),
                    obs::TrackerDecommissioned{tracker_index, migrated});
  }
}

void Engine::maybe_complete_drain(std::size_t tracker_index) {
  if (!elastic_on_) return;
  const TrackerElasticState& es = elastic_state_[tracker_index];
  // Preempted nodes terminate at the warned instant no matter what; only a
  // graceful decommission retires early when the node goes idle.
  if (!es.draining || es.retired || es.preempting) return;
  if (fault_state_[tracker_index].dead) return;
  if (!tracker_attempts_[tracker_index].empty()) return;
  const std::uint64_t epoch = es.epoch;
  // Same-tick deferral: let the in-flight attempt bookkeeping (TaskEnded
  // events, scheduler notifications) settle before the node retires, so
  // observers never see a retirement precede its last attempt's end.
  sim_.schedule_at(sim_.now(), [this, tracker_index, epoch]() {
    const TrackerElasticState& s = elastic_state_[tracker_index];
    if (s.epoch != epoch || !s.draining || s.retired || s.preempting) return;
    if (fault_state_[tracker_index].dead) return;
    if (!tracker_attempts_[tracker_index].empty()) return;
    retire_tracker(tracker_index, 0, false);
  });
}

void Engine::preemption_wave(const PreemptionWave& wave) {
  // Victims: the highest-indexed trackers that are up and not already
  // leaving — spot markets reclaim the most recently granted capacity
  // first. Warned in ascending index order for a deterministic stream.
  std::vector<std::size_t> victims;
  for (std::size_t i = cluster_.tracker_count();
       i-- > 0 && victims.size() < wave.count;) {
    const TrackerElasticState& es = elastic_state_[i];
    if (fault_state_[i].dead || es.draining || es.retired) continue;
    victims.push_back(i);
  }
  std::reverse(victims.begin(), victims.end());
  for (const std::size_t i : victims) {
    TrackerElasticState& es = elastic_state_[i];
    cluster_.set_draining(i);
    wake(i);
    es.draining = true;
    es.preempting = true;
    ++es.epoch;
    es.lease_deadline = sim_.now() + wave.warning;
    WOHA_LOG(LogLevel::kInfo, "engine")
        << "t=" << sim_.now() << " tracker " << i
        << " preemption warning (terminates at " << es.lease_deadline << ")";
    if (events_.active()) {
      events_.publish(sim_.now(), obs::PreemptionWarning{i, es.lease_deadline});
    }
    const std::uint64_t epoch = es.epoch;
    sim_.schedule_at(es.lease_deadline, [this, i, epoch]() {
      preempt_terminate(i, epoch);
    });
  }
}

void Engine::join_trackers(std::uint32_t count) {
  const Duration hb = config_.cluster.heartbeat_period;
  for (std::uint32_t n = 0; n < count; ++n) {
    const std::size_t i = cluster_.add_tracker();
    tracker_epoch_.emplace_back();
    tracker_attempts_.emplace_back();
    fault_state_.emplace_back();
    map_outputs_.emplace_back();
    elastic_state_.emplace_back();
    if (config_.faults.tracker_mtbf > 0.0) {
      // Fresh split off the fault root: churn on joined nodes is as
      // deterministic as on initial ones (split order == join order).
      tracker_fault_rngs_.push_back(fault_rng_root_.split());
    }
    ++live_trackers_;
    ++trackers_joined_;
    if (handles_.joins) handles_.joins->add();
    const TrackerState& ts = cluster_.tracker(i);
    account_capacity_change(static_cast<std::int64_t>(ts.capacity(SlotType::kMap)),
                            static_cast<std::int64_t>(ts.capacity(SlotType::kReduce)));
    WOHA_LOG(LogLevel::kInfo, "engine")
        << "t=" << sim_.now() << " tracker " << i << " joined";
    if (events_.active()) {
      events_.publish(sim_.now(), obs::TrackerJoined{i});
    }
    hb_.emplace_back();
    hb_[i].event =
        sim_.schedule_every(sim_.now() + hb, hb, [this, i]() { heartbeat_tick(i); });
    if (config_.faults.tracker_mtbf > 0.0) schedule_next_mtbf_crash(i);
  }
}

std::size_t Engine::pick_drain_victim() const {
  for (std::size_t i = cluster_.tracker_count(); i-- > 0;) {
    const TrackerElasticState& es = elastic_state_[i];
    if (fault_state_[i].dead || es.draining || es.retired) continue;
    return i;
  }
  return Cluster::kNoTracker;
}

void Engine::autoscale_tick() {
  const AutoscalerConfig& as = config_.elasticity.autoscaler;
  std::size_t draining = 0;
  for (const TrackerElasticState& es : elastic_state_) {
    draining += (es.draining && !es.retired) ? 1u : 0u;
  }
  AutoscaleSignal sig;
  sig.now = sim_.now();
  sig.live_trackers = live_trackers_;
  sig.draining_trackers = draining;
  sig.pending_workflows = job_tracker_.active_workflows();
  sig.free_map_slots = cluster_.total_free(SlotType::kMap);
  sig.free_reduce_slots = cluster_.total_free(SlotType::kReduce);

  std::int32_t delta = 0;
  if (config_.autoscale_policy) {
    delta = config_.autoscale_policy(sig);
  } else if (sig.pending_workflows > as.scale_out_pending) {
    delta = static_cast<std::int32_t>(as.step);
  } else if (sig.pending_workflows < as.scale_in_pending) {
    delta = -static_cast<std::int32_t>(as.step);
  }

  if (delta > 0) {
    const std::size_t max_trackers =
        as.max_trackers != 0
            ? as.max_trackers
            : 4 * static_cast<std::size_t>(config_.cluster.num_trackers);
    const std::size_t room =
        max_trackers > live_trackers_ ? max_trackers - live_trackers_ : 0;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(delta), room));
    if (n > 0) join_trackers(n);
  } else if (delta < 0) {
    // Draining trackers are still "live" until retired; count them out so
    // repeated ticks cannot drain the cluster past min_trackers.
    std::size_t effective = live_trackers_ - std::min(draining, live_trackers_);
    for (std::int32_t k = 0; k < -delta; ++k) {
      if (effective <= as.min_trackers) break;
      const std::size_t victim = pick_drain_victim();
      if (victim == Cluster::kNoTracker) break;
      begin_decommission(victim, as.drain_lease);
      --effective;
    }
  }
}

void Engine::account_capacity_change(std::int64_t map_delta,
                                     std::int64_t reduce_delta) {
  if (!elastic_on_) return;  // static denominator; nothing to integrate
  const SimTime now = sim_.now();
  if (now > last_capacity_change_) {
    const auto window = static_cast<double>(now - last_capacity_change_);
    offered_slot_ms_[0] += static_cast<double>(current_capacity_[0]) * window;
    offered_slot_ms_[1] += static_cast<double>(current_capacity_[1]) * window;
    last_capacity_change_ = now;
  }
  current_capacity_[0] += map_delta;
  current_capacity_[1] += reduce_delta;
}

RunSummary Engine::summarize() const {
  RunSummary out;
  std::uint32_t with_deadline = 0;
  std::uint32_t missed = 0;
  for (const auto& wf_ptr : job_tracker_.workflows()) {
    const WorkflowRuntime& w = *wf_ptr;
    WorkflowResult r;
    r.id = w.id();
    r.name = w.spec().name;
    r.submit_time = w.submit_time();
    r.deadline = w.deadline();
    r.finish_time = w.finish_time();
    // Shed workflows read as failed() internally (same teardown guards) but
    // report as shed, not as fault casualties.
    r.shed = w.shed();
    r.failed = w.failed() && !w.shed();
    if (w.finished()) {
      r.workspan = w.finish_time() - w.submit_time();
      r.tardiness = w.deadline() == kTimeInfinity
                        ? 0
                        : std::max<Duration>(0, w.finish_time() - w.deadline());
      r.met_deadline = w.finish_time() <= w.deadline();
      out.makespan = std::max(out.makespan, w.finish_time());
    } else {
      // Unfinished at horizon (or failed permanently): count as a miss with
      // tardiness up to now.
      r.met_deadline = false;
      r.tardiness = w.deadline() == kTimeInfinity
                        ? 0
                        : std::max<Duration>(0, sim_.now() - w.deadline());
    }
    if (w.deadline() != kTimeInfinity) {
      ++with_deadline;
      if (!r.met_deadline) ++missed;
    }
    out.max_tardiness = std::max(out.max_tardiness, r.tardiness);
    out.total_tardiness += r.tardiness;
    out.workflows.push_back(std::move(r));
  }
  // Rejected submissions never entered the JobTracker; they still count as
  // misses when they carried a deadline (turning work away is not free).
  for (const WorkflowResult& r : rejected_results_) {
    if (r.deadline != kTimeInfinity) {
      ++with_deadline;
      ++missed;
    }
    out.workflows.push_back(r);
  }
  out.deadline_miss_ratio =
      with_deadline ? static_cast<double>(missed) / with_deadline : 0.0;

  const SimTime start = first_submit_ == kTimeInfinity ? 0 : first_submit_;
  const double span = static_cast<double>(std::max<SimTime>(1, out.makespan - start));
  const auto& cc = config_.cluster;
  if (elastic_on_) {
    // Offered capacity varied over the run: use the slot-ms integral from
    // first submission to the later of makespan / last capacity change.
    const SimTime end = std::max(out.makespan, last_capacity_change_);
    double offered[2];
    for (std::size_t s = 0; s < 2; ++s) {
      const auto tail = static_cast<double>(
          std::max<SimTime>(0, end - last_capacity_change_));
      offered[s] = offered_slot_ms_[s] +
                   static_cast<double>(current_capacity_[s]) * tail;
      offered[s] = std::max(offered[s], 1.0);
    }
    out.map_slot_utilization = busy_ms_[0] / offered[0];
    out.reduce_slot_utilization = busy_ms_[1] / offered[1];
    out.overall_utilization = (busy_ms_[0] + busy_ms_[1]) / (offered[0] + offered[1]);
  } else {
    out.map_slot_utilization =
        busy_ms_[0] / (span * static_cast<double>(cc.total_map_slots()));
    out.reduce_slot_utilization =
        busy_ms_[1] / (span * static_cast<double>(cc.total_reduce_slots()));
    out.overall_utilization = (busy_ms_[0] + busy_ms_[1]) /
                              (span * static_cast<double>(cc.total_slots()));
  }
  out.tasks_executed = tasks_executed_;
  out.tasks_failed = tasks_failed_;
  out.events_fired = sim_.events_fired();
  out.select_calls = select_calls_;
  out.map_locality_ratio =
      total_maps_ ? static_cast<double>(local_maps_) / static_cast<double>(total_maps_)
                  : 1.0;
  out.tracker_crashes = tracker_crashes_;
  out.attempts_killed = attempts_killed_;
  out.map_outputs_lost = map_outputs_lost_;
  out.workflows_failed = workflows_failed_;
  out.blacklistings = blacklistings_;
  out.speculative_launched = speculative_launched_;
  out.speculative_won = speculative_won_;
  out.speculative_wasted_ms = speculative_wasted_ms_;
  out.workflows_submitted = workflows_submitted_;
  out.workflows_rejected = workflows_rejected_;
  out.workflows_shed = workflows_shed_;
  out.pending_peak = pending_peak_;
  out.tracker_decommissions = decommissions_;
  out.tracker_preemptions = preemptions_;
  out.trackers_joined = trackers_joined_;
  out.drain_migrated = drain_migrated_;
  return out;
}

}  // namespace woha::hadoop
