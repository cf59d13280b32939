// The (simulated) JobTracker: the master-node bookkeeping for workflows,
// wjobs, and their dependency-driven activation. The engine owns the clock;
// this class owns the state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "hadoop/job.hpp"

namespace woha::obs {
class EventBus;
}  // namespace woha::obs

namespace woha::hadoop {

class JobTracker : public AvailabilityListener {
 public:
  /// Register a workflow at its submission time; returns its WorkflowId
  /// (dense index, as in paper step (f): "gets a unique workflow ID").
  /// Publishes obs::WorkflowSubmitted when an event bus is attached.
  WorkflowId add_workflow(wf::WorkflowSpec spec, SimTime now);

  /// Attach the run's event bus (the engine does this at construction).
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  [[nodiscard]] std::size_t workflow_count() const { return workflows_.size(); }
  [[nodiscard]] WorkflowRuntime& workflow(WorkflowId id) {
    return *workflows_.at(id.value());
  }
  [[nodiscard]] const WorkflowRuntime& workflow(WorkflowId id) const {
    return *workflows_.at(id.value());
  }
  [[nodiscard]] JobInProgress& job(JobRef ref) {
    return workflows_.at(ref.workflow)->job(ref.job);
  }
  [[nodiscard]] const JobInProgress& job(JobRef ref) const {
    return workflows_.at(ref.workflow)->job(ref.job);
  }

  /// All workflows, in submission order.
  [[nodiscard]] const std::vector<std::unique_ptr<WorkflowRuntime>>& workflows() const {
    return workflows_;
  }

  /// Workflows not yet finished.
  [[nodiscard]] std::uint32_t active_workflows() const { return active_workflows_; }
  void count_workflow_finished() { --active_workflows_; }

  /// Cluster-global count of jobs with has_available(t), across every
  /// workflow. Maintained incrementally by the per-job availability index;
  /// lets the heartbeat path answer "could ANY task use this slot?" in O(1)
  /// before consulting the scheduler's queue.
  [[nodiscard]] std::uint64_t available_jobs(SlotType t) const {
    return available_jobs_[static_cast<std::size_t>(t)];
  }

  /// Stable addresses of available_jobs(t) and of its sum over both slot
  /// types, for Simulation::park watches: a parked heartbeat stays skipped
  /// while the counter of its free slot types still reads 0.
  [[nodiscard]] const std::uint64_t* available_jobs_counter(SlotType t) const {
    return &available_jobs_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const std::uint64_t* available_jobs_total() const {
    return &available_jobs_[2];
  }

  void on_available_jobs_changed(WorkflowId wf, SlotType t, int delta) override;

 private:
  // unique_ptr: WorkflowRuntime addresses must stay stable across
  // submissions because schedulers hold references between calls.
  std::vector<std::unique_ptr<WorkflowRuntime>> workflows_;
  std::uint32_t active_workflows_ = 0;
  std::uint64_t available_jobs_[3] = {0, 0, 0};  // map, reduce, sum
  obs::EventBus* bus_ = nullptr;
};

}  // namespace woha::hadoop
