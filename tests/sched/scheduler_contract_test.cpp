// The scheduler contract that heartbeat parking relies on, checked on every
// scheduler of the paper's evaluation and on WOHA over every queue kind:
//
//  (a) with available_jobs(t) == 0, an unfiltered select_tasks starts
//      nothing;
//  (b) any number of such empty consults, at any ticks, leaves the picks of
//      the next non-empty consult unchanged.
//
// A forwarding decorator checks (a) on every offer and, for (b), injects a
// seeded number of extra empty consults whenever nothing is available. The
// decision digest must then match both the plain unparked run and the
// parked run, where most empty consults never happen. A mutant whose
// refusals depend on how many consults it has seen shows the comparison
// has teeth.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "hadoop/job_tracker.hpp"
#include "metrics/report.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"

namespace woha {
namespace {

enum class Mode {
  kPlain,       ///< forward every call unchanged
  kInjectIdle,  ///< add 0-3 extra consults to every empty-availability offer
  kCountingMutant,  ///< refuse every 5th consult, counting empty ones too
};

class ContractProbe : public hadoop::WorkflowScheduler {
 public:
  ContractProbe(std::unique_ptr<hadoop::WorkflowScheduler> inner, Mode mode)
      : inner_(std::move(inner)), mode_(mode) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(const hadoop::JobTracker* tracker) override {
    WorkflowScheduler::attach(tracker);
    inner_->attach(tracker);
  }
  void observe(obs::EventBus* bus, obs::MetricsRegistry* registry) override {
    WorkflowScheduler::observe(bus, registry);
    inner_->observe(bus, registry);
  }
  void on_cluster_configured(std::uint32_t maps, std::uint32_t reduces) override {
    inner_->on_cluster_configured(maps, reduces);
  }
  void on_pending_submissions(const std::vector<wf::WorkflowSpec>& specs) override {
    inner_->on_pending_submissions(specs);
  }
  void on_workflow_submitted(WorkflowId wf, SimTime now) override {
    inner_->on_workflow_submitted(wf, now);
  }
  void on_job_activated(hadoop::JobRef job, SimTime now) override {
    inner_->on_job_activated(job, now);
  }
  void on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) override {
    inner_->on_task_finished(job, t, now);
  }
  void on_job_completed(hadoop::JobRef job, SimTime now) override {
    inner_->on_job_completed(job, now);
  }
  void on_workflow_completed(WorkflowId wf, SimTime now) override {
    inner_->on_workflow_completed(wf, now);
  }
  void on_workflow_failed(WorkflowId wf, SimTime now) override {
    inner_->on_workflow_failed(wf, now);
  }
  void on_tasks_lost(hadoop::JobRef job, SlotType t, std::uint32_t count,
                     SimTime now) override {
    inner_->on_tasks_lost(job, t, count, now);
  }
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override {
    return inner_->select_task(slot, now);
  }

  std::uint32_t select_tasks(const hadoop::SlotOffer& slot, std::uint32_t limit,
                             const std::function<void(hadoop::JobRef)>& start,
                             SimTime now) override {
    const bool idle = tracker_->available_jobs(slot.type) == 0 && slot.eligible == nullptr;
    if (mode_ == Mode::kCountingMutant && ++consults_ % 5 == 0 && !idle) return 0;
    if (mode_ == Mode::kInjectIdle && idle) {
      // Extra empty consults: a start here is a contract violation, and is
      // recorded instead of performed.
      const auto refuse = [this](hadoop::JobRef) { ++idle_starts_; };
      for (std::uint64_t k = rng_() % 4; k > 0; --k) {
        idle_starts_ += inner_->select_tasks(slot, limit, refuse, now);
      }
    }
    const std::uint32_t started = inner_->select_tasks(slot, limit, start, now);
    if (idle) idle_starts_ += started;
    return started;
  }

  [[nodiscard]] std::uint64_t idle_starts() const { return idle_starts_; }

 private:
  std::unique_ptr<hadoop::WorkflowScheduler> inner_;
  Mode mode_;
  std::mt19937_64 rng_{17};
  std::uint64_t consults_ = 0;
  std::uint64_t idle_starts_ = 0;
};

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t idle_starts = 0;
  std::uint64_t parked = 0;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

Outcome run(const metrics::SchedulerFactory& make, Mode mode, bool park) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 16;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.duration_jitter_sigma = 0.2;
  config.park_idle_heartbeats = park;
  auto probe = std::make_unique<ContractProbe>(make(), mode);
  const ContractProbe* raw = probe.get();
  hadoop::Engine engine(config, std::move(probe));
  obs::MetricsRegistry registry;
  engine.set_metrics_registry(&registry);
  for (const auto& spec : trace::fig11_scenario()) engine.submit(spec);

  // Decisions: every task start (time, task, tracker) and end, then the
  // run totals the goldens also pin.
  std::uint64_t h = 0xcbf29ce484222325ull;
  engine.events().subscribe([&h](const obs::Event& e) {
    if (const auto* st = std::get_if<obs::TaskStarted>(&e.payload)) {
      h = fnv(h, static_cast<std::uint64_t>(e.time));
      h = fnv(h, (std::uint64_t{st->workflow} << 32) | st->job);
      h = fnv(h, (static_cast<std::uint64_t>(st->tracker) << 1) |
                     static_cast<std::uint64_t>(st->slot));
    } else if (const auto* en = std::get_if<obs::TaskEnded>(&e.payload)) {
      h = fnv(h, static_cast<std::uint64_t>(e.time));
      h = fnv(h, en->attempt);
    }
  });
  engine.run();
  const auto s = engine.summarize();
  h = fnv(h, static_cast<std::uint64_t>(s.makespan));
  h = fnv(h, s.tasks_executed);
  h = fnv(h, s.events_fired);
  h = fnv(h, s.select_calls);
  for (const auto& w : s.workflows) h = fnv(h, static_cast<std::uint64_t>(w.finish_time));
  return {h, raw->idle_starts(), registry.counter("engine.heartbeats_parked").value()};
}

std::vector<metrics::SchedulerEntry> roster() {
  std::vector<metrics::SchedulerEntry> out = metrics::paper_schedulers();
  for (const core::QueueKind kind :
       {core::QueueKind::kBst, core::QueueKind::kBstPlain, core::QueueKind::kNaive}) {
    out.push_back({std::string("WOHA-LPF/") + core::to_string(kind), [kind] {
                     core::WohaConfig wc;
                     wc.queue = kind;
                     return std::make_unique<core::WohaScheduler>(wc);
                   }});
  }
  return out;
}

TEST(SchedulerContract, EmptyConsultsNeitherStartNorSteer) {
  for (const auto& entry : roster()) {
    const Outcome plain = run(entry.make, Mode::kPlain, /*park=*/false);
    const Outcome injected = run(entry.make, Mode::kInjectIdle, /*park=*/false);
    const Outcome parked = run(entry.make, Mode::kPlain, /*park=*/true);
    EXPECT_EQ(plain.idle_starts, 0u) << entry.label;
    EXPECT_EQ(injected.idle_starts, 0u) << entry.label;
    EXPECT_EQ(injected.digest, plain.digest) << entry.label;
    EXPECT_EQ(parked.digest, plain.digest) << entry.label;
    EXPECT_EQ(plain.parked, 0u) << entry.label;
    EXPECT_GT(parked.parked, 0u) << entry.label;
  }
}

TEST(SchedulerContract, HistoryDependentRefusalFailsParkedVsUnparked) {
  // The mutant refuses offers with available_jobs > 0 on a schedule that
  // counts empty consults too, so skipping empty consults steers it:
  // parking changes its decisions, and the digest comparison catches it.
  metrics::SchedulerFactory fifo;
  for (const auto& entry : metrics::paper_schedulers()) {
    if (entry.label == "FIFO") fifo = entry.make;
  }
  ASSERT_TRUE(fifo);
  const Outcome unparked = run(fifo, Mode::kCountingMutant, /*park=*/false);
  const Outcome parked = run(fifo, Mode::kCountingMutant, /*park=*/true);
  EXPECT_NE(parked.digest, unparked.digest);
}

}  // namespace
}  // namespace woha
