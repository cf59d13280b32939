// Outside-in layer ledger for the benchmark's traced pass.
//
// Nothing inside src/ is instrumented. Host time is attributed from the
// outside: a forwarding WorkflowScheduler decorator marks every call the
// engine makes into the scheduler layer, and the benchmark brackets
// Engine::run() itself. The ledger is exclusive — a transition charges the
// time since the previous mark to whichever bucket is on top of the stack —
// so the buckets of one run sum to the wall of Engine::run() by
// construction, with no residual.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hadoop/scheduler.hpp"

namespace woha::perfbench {

enum class Bucket : std::uint8_t {
  kEngineSelf,  ///< Engine::run() minus everything below (hadoop layer)
  kStartTask,   ///< the engine's start callback, invoked during a consult
  kConsult,     ///< select_task(s) minus the start callback (sched layer)
  kCallback,    ///< on_task_finished / on_job_* / on_workflow_* / on_tasks_lost
  kPlanSubmit,  ///< on_workflow_submitted (WOHA: plan lookup or generation)
  kPrewarm,     ///< on_pending_submissions (WOHA: parallel plan prewarm)
  kCount,
};

class Ledger {
 public:
  static constexpr std::size_t kBuckets = static_cast<std::size_t>(Bucket::kCount);

  /// Opens a run: the engine's own bucket is on top from here on.
  void begin_run();
  /// Closes the run, charging the time since the last mark.
  void end_run();

  void enter(Bucket b);
  void leave();

  /// Exclusive nanoseconds accumulated so far in `b`.
  [[nodiscard]] std::int64_t ns(Bucket b) const {
    return ns_[static_cast<std::size_t>(b)];
  }

  // Work counts, summed over every run the ledger has seen.
  std::uint64_t consults = 0;         ///< select_tasks calls
  std::uint64_t offered_slots = 0;    ///< sum of consult limits
  std::uint64_t grants = 0;           ///< tasks started by consults
  std::uint64_t empty_consults = 0;   ///< consults that started nothing
  std::uint64_t select_equivalent = 0;  ///< sum of started + [started < limit]
  std::uint64_t lost_calls = 0;       ///< on_tasks_lost calls
  std::uint64_t prewarmed_specs = 0;  ///< specs handed to on_pending_submissions
  std::uint64_t submitted = 0;        ///< on_workflow_submitted calls
  /// Exclusive consult time of every consult, for percentiles.
  std::vector<std::uint32_t> consult_ns;

 private:
  static constexpr std::size_t kMaxDepth = 8;
  std::array<std::int64_t, kBuckets> ns_{};
  std::array<Bucket, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::int64_t mark_ = 0;
};

/// Forwards every WorkflowScheduler call to `inner`, charging its host time
/// to the ledger. Decision-neutral: the inner scheduler sees the same calls
/// with the same arguments in the same order, and the start callback it
/// receives invokes the engine's callback exactly once per pick.
class TimedScheduler final : public hadoop::WorkflowScheduler {
 public:
  TimedScheduler(std::unique_ptr<hadoop::WorkflowScheduler> inner, Ledger* ledger);

  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(const hadoop::JobTracker* tracker) override;
  void observe(obs::EventBus* bus, obs::MetricsRegistry* registry) override;
  void on_cluster_configured(std::uint32_t total_map_slots,
                             std::uint32_t total_reduce_slots) override;
  void on_pending_submissions(const std::vector<wf::WorkflowSpec>& specs) override;
  void on_workflow_submitted(WorkflowId wf, SimTime now) override;
  void on_job_activated(hadoop::JobRef job, SimTime now) override;
  void on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) override;
  void on_job_completed(hadoop::JobRef job, SimTime now) override;
  void on_workflow_completed(WorkflowId wf, SimTime now) override;
  void on_workflow_failed(WorkflowId wf, SimTime now) override;
  void on_tasks_lost(hadoop::JobRef job, SlotType t, std::uint32_t count,
                     SimTime now) override;
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override;
  std::uint32_t select_tasks(const hadoop::SlotOffer& slot, std::uint32_t limit,
                             const std::function<void(hadoop::JobRef)>& start,
                             SimTime now) override;

 private:
  std::unique_ptr<hadoop::WorkflowScheduler> inner_;
  Ledger* ledger_;
  /// The engine's start callback of the consult in progress.
  const std::function<void(hadoop::JobRef)>* engine_start_ = nullptr;
  /// Built once: times engine_start_ under Bucket::kStartTask.
  std::function<void(hadoop::JobRef)> timed_start_;
};

}  // namespace woha::perfbench
