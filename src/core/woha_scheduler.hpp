// WOHA's progress-based workflow scheduler: the paper's default
// Scheduling Plan Generator + Workflow Scheduler pair (Sections IV-A/IV-B).
//
// Client side (modelled inside on_workflow_submitted, since plan generation
// is *not* master work — Fig. 1 steps (a)-(d)): compute the intra-workflow
// job order, pick the resource cap (binary search by default), run
// Algorithm 1, and hand the resulting plan to the master.
//
// Master side: a SchedulerQueue (Double Skip List by default) orders
// workflows by progress lag F(ttd) - rho; per idle slot, the most lagging
// workflow with an assignable task wins, and within it the highest
// plan-ranked active job.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/job_priority.hpp"
#include "core/plan_cache.hpp"
#include "core/resource_cap.hpp"
#include "core/scheduler_queue.hpp"
#include "estimate/estimator.hpp"
#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"
#include "obs/event.hpp"

namespace woha::obs {
class Histogram;
}  // namespace woha::obs

namespace woha::core {

struct WohaConfig {
  JobPriorityPolicy job_priority = JobPriorityPolicy::kLpf;
  CapPolicy cap_policy = CapPolicy::kMinFeasible;
  std::uint32_t fixed_cap = 0;  ///< only with CapPolicy::kFixed
  /// Headroom for the kMinFeasible cap search: the plan targets finishing
  /// by deadline * plan_deadline_factor, leaving slack for heartbeat and
  /// activation latencies that the client-side simulation does not model.
  double plan_deadline_factor = 0.9;
  QueueKind queue = QueueKind::kDsl;
  /// Resource cap ceiling used by the plan generator; 0 = ask the cluster
  /// (total slot count) — the client's "consult the JobTracker about the
  /// maximum number of slots" step.
  std::uint32_t cluster_slots_override = 0;
  /// Task-time estimator feeding the plan generator (paper Sec. IV-A:
  /// estimates come from history logs or models). Null = trust the
  /// configuration's durations (SpecEstimator behaviour). Shared so a
  /// HistoryEstimator can accumulate knowledge across runs.
  std::shared_ptr<est::TaskTimeEstimator> estimator;
  /// Reuse scheduling plans across submissions whose planning inputs
  /// fingerprint equal (recurrent workflow instances). A hit is
  /// bit-identical to recomputation — plan generation is pure — so this
  /// only trades memory for client CPU; disable to force per-instance
  /// generation (the plan-cache ablation does).
  bool plan_cache = true;
  /// Worker threads for the pre-run plan prewarm (on_pending_submissions):
  /// distinct fingerprints among the submitted workflows are planned in
  /// parallel and planted in the cache before the simulation starts, so
  /// on_workflow_submitted finds every plan already computed. 1 = serial
  /// (prewarm off, the default); 0 = hardware concurrency. Results install
  /// in submission order and a claimed prewarm counts as a cache miss, so
  /// schedules, digests, and hit/miss tallies are bit-identical to serial.
  /// Ignored when plan_cache is off or an estimator is configured (a
  /// learning estimator's output depends on submission order).
  unsigned plan_jobs = 1;
  /// Maximum plans retained in the cache; 0 = unbounded (the historical
  /// behaviour). Eviction is least-recently-used over the single-threaded
  /// access order, so it is deterministic; an evicted recurrent fingerprint
  /// recomputes on its next submission — a miss either way — so capacity
  /// never changes a scheduling decision, only the hit/miss/eviction
  /// tallies and the resident memory.
  std::size_t plan_cache_capacity = 0;
};

class WohaScheduler final : public hadoop::WorkflowScheduler {
 public:
  explicit WohaScheduler(WohaConfig config = {});

  [[nodiscard]] std::string name() const override;

  /// The engine reports the cluster size before the run (stand-in for the
  /// client's slot-count query).
  void set_cluster_slots(std::uint32_t total_slots) { cluster_slots_ = total_slots; }

  void on_cluster_configured(std::uint32_t total_map_slots,
                             std::uint32_t total_reduce_slots) override {
    set_cluster_slots(total_map_slots + total_reduce_slots);
  }

  void on_pending_submissions(const std::vector<wf::WorkflowSpec>& specs) override;
  void on_workflow_submitted(WorkflowId wf, SimTime now) override;
  void on_job_activated(hadoop::JobRef job, SimTime now) override;
  void on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) override;
  void on_job_completed(hadoop::JobRef job, SimTime now) override;
  void on_workflow_completed(WorkflowId wf, SimTime now) override;
  void on_tasks_lost(hadoop::JobRef job, SlotType t, std::uint32_t count,
                     SimTime now) override;
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override;
  std::uint32_t select_tasks(const hadoop::SlotOffer& slot, std::uint32_t limit,
                             const std::function<void(hadoop::JobRef)>& start,
                             SimTime now) override;

  /// Resolves the decision-latency histogram once; select_task then records
  /// into a raw pointer (no registry lookups on the hot path).
  void observe(obs::EventBus* bus, obs::MetricsRegistry* registry) override;

  /// Introspection for tests and benches.
  [[nodiscard]] const SchedulingPlan* plan_of(WorkflowId wf) const;
  [[nodiscard]] const SchedulerQueue& queue() const { return *queue_; }
  [[nodiscard]] const PlanCache& plan_cache() const { return plan_cache_; }

 private:
  struct WorkflowState {
    /// Shared: recurrent instances with equal planning inputs point at one
    /// cached plan. Immutable after generation.
    std::shared_ptr<const SchedulingPlan> plan;
    /// Active (schedulable) jobs sorted by ascending plan rank.
    std::vector<std::uint32_t> active_jobs;
  };

  /// Highest-ranked active job of `wf` with an available task the offered
  /// slot may run (type match + not blacklisted for the offering tracker).
  [[nodiscard]] std::optional<std::uint32_t> pick_job(
      std::uint32_t wf, const hadoop::SlotOffer& slot) const;

  /// Publishes one SchedulerDecision for `slot` (nullopt = left idle) with
  /// the queue head as it stands now. Callers check that the bus is active.
  void publish_decision(const hadoop::SlotOffer& slot,
                        std::optional<hadoop::JobRef> choice, SimTime now);

  WohaConfig config_;
  std::uint32_t cluster_slots_ = 0;
  std::unique_ptr<SchedulerQueue> queue_;
  std::unordered_map<std::uint32_t, WorkflowState> states_;
  PlanCache plan_cache_;
  /// Resolved by observe(); null with no registry attached.
  obs::Histogram* assign_ns_ = nullptr;
  /// Client-side plan-generation latency (cache hits included); null with
  /// no registry attached.
  obs::Histogram* plan_ns_ = nullptr;
  /// Scratch buffer for decision-trace snapshots (reused across calls).
  std::vector<SchedulerQueue::QueueEntry> top_scratch_;
  /// Long-lived decision-trace event: the SchedulerDecision payload (its
  /// ranking vector, its scheduler-name string) keeps its buffers across
  /// publishes via EventBus::publish_borrowed, so a traced run makes no
  /// per-decision allocations.
  obs::Event trace_event_;
  /// True when the previous consult carried a per-tracker eligibility
  /// filter: such can_use answers are outside the queue's rejection-memo
  /// contract, so the memo is dropped before the filtered consult and
  /// again before the first unfiltered one after it.
  bool last_offer_filtered_ = false;
};

}  // namespace woha::core
