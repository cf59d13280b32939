#include "hadoop/scheduler.hpp"

#include "hadoop/job_tracker.hpp"
#include "obs/metrics_registry.hpp"

namespace woha::hadoop {

void WorkflowScheduler::observe(obs::EventBus* bus, obs::MetricsRegistry* registry) {
  bus_ = bus;
  metrics_ = registry;
  early_out_offers_ = registry ? &registry->counter("sched.early_out_offers") : nullptr;
}

bool WorkflowScheduler::nothing_available(SlotType t) const {
  if (tracker_ == nullptr || tracker_->available_jobs(t) != 0) return false;
  if (early_out_offers_) early_out_offers_->add();
  return true;
}

std::uint32_t WorkflowScheduler::select_tasks(
    const SlotOffer& slot, std::uint32_t limit,
    const std::function<void(JobRef)>& start, SimTime now) {
  std::uint32_t started = 0;
  while (started < limit) {
    const std::optional<JobRef> choice = select_task(slot, now);
    if (!choice.has_value()) break;
    start(*choice);
    ++started;
  }
  return started;
}

}  // namespace woha::hadoop
