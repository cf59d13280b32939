#include "timed_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace woha::perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Brackets one forwarded call in a ledger bucket.
class Span {
 public:
  Span(Ledger* ledger, Bucket b) : ledger_(ledger) { ledger_->enter(b); }
  ~Span() { ledger_->leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace

void Ledger::begin_run() {
  depth_ = 0;
  stack_[0] = Bucket::kEngineSelf;
  mark_ = now_ns();
}

void Ledger::end_run() {
  const std::int64_t now = now_ns();
  ns_[static_cast<std::size_t>(stack_[depth_])] += now - mark_;
  mark_ = now;
}

void Ledger::enter(Bucket b) {
  if (depth_ + 1 == kMaxDepth) throw std::logic_error("ledger: spans nested too deep");
  const std::int64_t now = now_ns();
  ns_[static_cast<std::size_t>(stack_[depth_])] += now - mark_;
  mark_ = now;
  stack_[++depth_] = b;
}

void Ledger::leave() {
  const std::int64_t now = now_ns();
  ns_[static_cast<std::size_t>(stack_[depth_])] += now - mark_;
  mark_ = now;
  if (depth_ > 0) --depth_;
}

TimedScheduler::TimedScheduler(std::unique_ptr<hadoop::WorkflowScheduler> inner,
                               Ledger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {
  timed_start_ = [this](hadoop::JobRef ref) {
    const Span span(ledger_, Bucket::kStartTask);
    (*engine_start_)(ref);
  };
}

void TimedScheduler::attach(const hadoop::JobTracker* tracker) {
  WorkflowScheduler::attach(tracker);
  inner_->attach(tracker);
}

void TimedScheduler::observe(obs::EventBus* bus, obs::MetricsRegistry* registry) {
  WorkflowScheduler::observe(bus, registry);
  inner_->observe(bus, registry);
}

void TimedScheduler::on_cluster_configured(std::uint32_t total_map_slots,
                                           std::uint32_t total_reduce_slots) {
  inner_->on_cluster_configured(total_map_slots, total_reduce_slots);
}

void TimedScheduler::on_pending_submissions(
    const std::vector<wf::WorkflowSpec>& specs) {
  ledger_->prewarmed_specs += specs.size();
  const Span span(ledger_, Bucket::kPrewarm);
  inner_->on_pending_submissions(specs);
}

void TimedScheduler::on_workflow_submitted(WorkflowId wf, SimTime now) {
  ++ledger_->submitted;
  const Span span(ledger_, Bucket::kPlanSubmit);
  inner_->on_workflow_submitted(wf, now);
}

void TimedScheduler::on_job_activated(hadoop::JobRef job, SimTime now) {
  const Span span(ledger_, Bucket::kCallback);
  inner_->on_job_activated(job, now);
}

void TimedScheduler::on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) {
  const Span span(ledger_, Bucket::kCallback);
  inner_->on_task_finished(job, t, now);
}

void TimedScheduler::on_job_completed(hadoop::JobRef job, SimTime now) {
  const Span span(ledger_, Bucket::kCallback);
  inner_->on_job_completed(job, now);
}

void TimedScheduler::on_workflow_completed(WorkflowId wf, SimTime now) {
  const Span span(ledger_, Bucket::kCallback);
  inner_->on_workflow_completed(wf, now);
}

void TimedScheduler::on_workflow_failed(WorkflowId wf, SimTime now) {
  const Span span(ledger_, Bucket::kCallback);
  inner_->on_workflow_failed(wf, now);
}

void TimedScheduler::on_tasks_lost(hadoop::JobRef job, SlotType t,
                                   std::uint32_t count, SimTime now) {
  ++ledger_->lost_calls;
  const Span span(ledger_, Bucket::kCallback);
  inner_->on_tasks_lost(job, t, count, now);
}

std::optional<hadoop::JobRef> TimedScheduler::select_task(
    const hadoop::SlotOffer& slot, SimTime now) {
  const Span span(ledger_, Bucket::kConsult);
  return inner_->select_task(slot, now);
}

std::uint32_t TimedScheduler::select_tasks(
    const hadoop::SlotOffer& slot, std::uint32_t limit,
    const std::function<void(hadoop::JobRef)>& start, SimTime now) {
  Ledger& l = *ledger_;
  const std::int64_t consult_before = l.ns(Bucket::kConsult);
  std::uint32_t started = 0;
  {
    const Span span(ledger_, Bucket::kConsult);
    engine_start_ = &start;
    started = inner_->select_tasks(slot, limit, timed_start_, now);
  }
  l.consult_ns.push_back(static_cast<std::uint32_t>(
      std::min<std::int64_t>(l.ns(Bucket::kConsult) - consult_before, UINT32_MAX)));
  ++l.consults;
  l.offered_slots += limit;
  l.grants += started;
  l.empty_consults += started == 0 ? 1 : 0;
  l.select_equivalent += started + (started < limit ? 1 : 0);
  return started;
}

}  // namespace woha::perfbench
