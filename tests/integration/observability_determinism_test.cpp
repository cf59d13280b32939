// The observability layer's hardest requirement: attaching the event bus,
// the metrics registry, and every exporter must not perturb the simulation.
// Runs of the same workload — bus idle, registry only, bus with a
// subscriber + registry, bus with all exporters + log bridge, each optionally
// under the invariant auditor — must produce bit-identical run summaries AND
// leave the engine RNG in the bit-identical state (so not a single extra
// random draw happened anywhere). Observed runs take the same consult path
// as unobserved ones, so the skipped-offer counters agree too.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <sstream>
#include <variant>

#include "audit/invariant_auditor.hpp"
#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/log_bridge.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

enum class Obs { kOff, kRegistryOnly, kSubscribed, kFullExport };

struct RunOutput {
  hadoop::RunSummary summary;
  std::array<std::uint64_t, 5> rng_state;
  // Skipped-heartbeat and skipped-offer counters and WOHA consult count
  // (one queue_assign_ns sample per select_tasks call); 0 when no registry
  // is attached.
  std::uint64_t heartbeats_parked = 0;
  std::uint64_t early_out_offers = 0;
  std::uint64_t woha_consults = 0;
};

// EngineConfig::audit is honoured the way metrics::run_experiment does: the
// auditor subscribes last and runs a final sweep after the run.
RunOutput run(const hadoop::EngineConfig& config,
              const std::vector<wf::WorkflowSpec>& workload, Obs mode) {
  hadoop::Engine engine(config, std::make_unique<core::WohaScheduler>());

  obs::MetricsRegistry registry;
  std::ostringstream trace_out, jsonl_out;
  std::unique_ptr<obs::ChromeTraceExporter> chrome;
  std::unique_ptr<obs::JsonlExporter> jsonl;
  std::unique_ptr<obs::LogBridge> bridge;
  std::uint64_t decisions_seen = 0;

  if (mode != Obs::kOff) engine.set_metrics_registry(&registry);
  if (mode == Obs::kSubscribed || mode == Obs::kFullExport) {
    engine.events().subscribe([&decisions_seen](const obs::Event& e) {
      decisions_seen += std::holds_alternative<obs::SchedulerDecision>(e.payload);
    });
  }
  if (mode == Obs::kFullExport) {
    chrome = std::make_unique<obs::ChromeTraceExporter>(engine.events(), trace_out);
    jsonl = std::make_unique<obs::JsonlExporter>(engine.events(), jsonl_out);
    bridge = std::make_unique<obs::LogBridge>(engine.events());
  }
  std::optional<audit::InvariantAuditor> auditor;
  if (config.audit) auditor.emplace(engine);

  for (const auto& spec : workload) engine.submit(spec);
  engine.run();

  RunOutput out{engine.summarize(), engine.rng_state()};
  if (mode == Obs::kSubscribed || mode == Obs::kFullExport) {
    // The instrumentation genuinely ran — otherwise this test silently
    // degrades into plain determinism.
    EXPECT_GT(decisions_seen, 0u);
  }
  if (mode != Obs::kOff) {
    EXPECT_GT(registry.counter("engine.heartbeats").value(), 0u);
    out.heartbeats_parked = registry.counter("engine.heartbeats_parked").value();
    out.early_out_offers = registry.counter("sched.early_out_offers").value();
    out.woha_consults = registry.find_histogram("woha.queue_assign_ns")->count();
  }
  if (auditor) {
    auditor->full_sweep();
    EXPECT_GT(auditor->sweeps_run(), 1u);
  }
  return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.rng_state, b.rng_state);  // not one extra draw anywhere
  ASSERT_EQ(a.summary.workflows.size(), b.summary.workflows.size());
  for (std::size_t i = 0; i < a.summary.workflows.size(); ++i) {
    const auto& wa = a.summary.workflows[i];
    const auto& wb = b.summary.workflows[i];
    EXPECT_EQ(wa.finish_time, wb.finish_time) << "workflow " << i;
    EXPECT_EQ(wa.workspan, wb.workspan) << "workflow " << i;
    EXPECT_EQ(wa.tardiness, wb.tardiness) << "workflow " << i;
    EXPECT_EQ(wa.met_deadline, wb.met_deadline) << "workflow " << i;
    EXPECT_EQ(wa.failed, wb.failed) << "workflow " << i;
  }
  EXPECT_EQ(a.summary.makespan, b.summary.makespan);
  EXPECT_EQ(a.summary.events_fired, b.summary.events_fired);
  EXPECT_EQ(a.summary.select_calls, b.summary.select_calls);
  EXPECT_EQ(a.summary.tasks_executed, b.summary.tasks_executed);
  EXPECT_EQ(a.summary.tasks_failed, b.summary.tasks_failed);
  EXPECT_EQ(a.summary.tracker_crashes, b.summary.tracker_crashes);
  EXPECT_EQ(a.summary.attempts_killed, b.summary.attempts_killed);
  EXPECT_EQ(a.summary.map_outputs_lost, b.summary.map_outputs_lost);
  EXPECT_EQ(a.summary.speculative_launched, b.summary.speculative_launched);
  EXPECT_EQ(a.summary.speculative_won, b.summary.speculative_won);
  EXPECT_EQ(a.summary.blacklistings, b.summary.blacklistings);
  EXPECT_DOUBLE_EQ(a.summary.overall_utilization, b.summary.overall_utilization);
  EXPECT_DOUBLE_EQ(a.summary.map_locality_ratio, b.summary.map_locality_ratio);
}

// Chaos config: every stochastic engine feature on at once, so any RNG
// perturbation by the observability layer has maximal surface to show up.
hadoop::EngineConfig chaos_config() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 6;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.cluster.heartbeat_period = seconds(3);
  config.seed = 42;
  config.duration_jitter_sigma = 0.3;
  config.task_failure_prob = 0.05;
  config.remote_map_penalty = 1.3;
  config.faults.tracker_mtbf = 400.0 * 1000.0;
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(120);
  config.faults.max_attempts = 25;
  config.faults.blacklist_task_failures = 3;
  config.faults.speculative_execution = true;
  return config;
}

std::vector<wf::WorkflowSpec> chaos_workload() {
  std::vector<wf::WorkflowSpec> out;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(30);
    spec.relative_deadline = minutes(40);
    out.push_back(spec);
  }
  return out;
}

TEST(ObservabilityDeterminism, ChaosRunUnchangedByObservers) {
  const auto config = chaos_config();
  const auto workload = chaos_workload();
  const auto off = run(config, workload, Obs::kOff);
  const auto subscribed = run(config, workload, Obs::kSubscribed);
  const auto exported = run(config, workload, Obs::kFullExport);

  // The chaos paths must actually fire for the comparison to mean anything.
  EXPECT_GT(off.summary.tracker_crashes, 0u);
  EXPECT_GT(off.summary.attempts_killed, 0u);
  EXPECT_GT(off.summary.tasks_failed, 0u);

  expect_identical(off, subscribed);
  expect_identical(off, exported);
}

// The paper's Fig. 8 trace (46 Yahoo-like workflows) at a contended cluster
// size: the realistic workload shape, jitter on, no node faults.
TEST(ObservabilityDeterminism, Fig8TraceUnchangedByObservers) {
  hadoop::EngineConfig config;
  config.cluster = hadoop::ClusterConfig::with_totals(200, 200);
  const auto workload = trace::fig8_trace(42);

  const auto off = run(config, workload, Obs::kOff);
  const auto exported = run(config, workload, Obs::kFullExport);
  expect_identical(off, exported);
}

// A cluster wide enough for WOHA's batched consults, heartbeat parking and
// the cluster-wide early-out to fire. An observed run must take exactly the
// path an unobserved one takes: same decisions, and the same number of
// parked heartbeats and early-out offers.
hadoop::EngineConfig wide_config() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 64;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.seed = 7;
  config.duration_jitter_sigma = 0.2;
  return config;
}

// Returns the registry-only run.
RunOutput expect_same_consult_path(const hadoop::EngineConfig& config) {
  const auto workload = trace::fig11_scenario();
  const auto idle = run(config, workload, Obs::kRegistryOnly);
  const auto subscribed = run(config, workload, Obs::kSubscribed);

  EXPECT_GT(idle.heartbeats_parked, 0u);
  EXPECT_GT(idle.early_out_offers, 0u);
  EXPECT_EQ(idle.heartbeats_parked, subscribed.heartbeats_parked);
  EXPECT_EQ(idle.early_out_offers, subscribed.early_out_offers);
  // Batched consults stay batched: a per-slot fallback would add samples.
  EXPECT_EQ(idle.woha_consults, subscribed.woha_consults);
  expect_identical(idle, subscribed);
  return idle;
}

TEST(ObservabilityDeterminism, ObservedWohaRunTakesTheBatchedPath) {
  expect_same_consult_path(wide_config());
}

// The same under the invariant auditor: its check_structure sweeps now run
// against the batched consult path, and attaching it changes nothing.
TEST(ObservabilityDeterminism, AuditedWohaRunTakesTheBatchedPath) {
  auto config = wide_config();
  config.audit = true;
  const auto audited = expect_same_consult_path(config);

  const auto unaudited = run(wide_config(), trace::fig11_scenario(), Obs::kRegistryOnly);
  EXPECT_EQ(unaudited.heartbeats_parked, audited.heartbeats_parked);
  EXPECT_EQ(unaudited.early_out_offers, audited.early_out_offers);
  EXPECT_EQ(unaudited.woha_consults, audited.woha_consults);
  expect_identical(unaudited, audited);
}

}  // namespace
}  // namespace woha
