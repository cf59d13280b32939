#include "hadoop/job_tracker.hpp"

#include "obs/event_bus.hpp"

namespace woha::hadoop {

WorkflowId JobTracker::add_workflow(wf::WorkflowSpec spec, SimTime now) {
  const WorkflowId id(static_cast<std::uint32_t>(workflows_.size()));
  workflows_.push_back(std::make_unique<WorkflowRuntime>(id, std::move(spec), now));
  workflows_.back()->set_availability_listener(this);
  ++active_workflows_;
  if (bus_ && bus_->active()) {
    const WorkflowRuntime& rt = *workflows_.back();
    bus_->publish(now, obs::WorkflowSubmitted{
                           id.value(), rt.spec().name, rt.deadline(),
                           static_cast<std::uint32_t>(rt.spec().job_count())});
  }
  return id;
}

void JobTracker::on_available_jobs_changed(WorkflowId /*wf*/, SlotType t, int delta) {
  auto& count = available_jobs_[static_cast<std::size_t>(t)];
  if (delta < 0 && count == 0) {
    throw std::logic_error("JobTracker: available-jobs count underflow");
  }
  count += static_cast<std::uint64_t>(static_cast<std::int64_t>(delta));
  available_jobs_[2] += static_cast<std::uint64_t>(static_cast<std::int64_t>(delta));
}

}  // namespace woha::hadoop
