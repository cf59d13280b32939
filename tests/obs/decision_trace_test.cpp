// Scheduler decision explainability: every scheduler publishes one
// SchedulerDecision per granted slot, plus one unassigned record when a
// consult walks its queue and comes up empty, each with the ranking it
// consulted. Offers answered by the engine's same-tick memo or by the
// cluster-wide early-out publish nothing. Subscribing the trace never
// changes what gets scheduled.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "workflow/topology.hpp"

namespace woha {
namespace {

std::vector<wf::WorkflowSpec> small_workload() {
  std::vector<wf::WorkflowSpec> out;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto spec = wf::diamond(3);
    spec.name = "wf" + std::to_string(i);
    spec.submit_time = i * seconds(20);
    spec.relative_deadline = minutes(40) + i * minutes(5);
    out.push_back(spec);
  }
  return out;
}

hadoop::EngineConfig small_cluster() {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 3;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  return config;
}

struct Trace {
  std::vector<obs::SchedulerDecision> decisions;
  hadoop::RunSummary summary;
};

Trace run_traced(const metrics::SchedulerEntry& entry, bool subscribe) {
  hadoop::Engine engine(small_cluster(), entry.make());
  Trace trace;
  if (subscribe) {
    engine.events().subscribe([&trace](const obs::Event& e) {
      if (const auto* d = std::get_if<obs::SchedulerDecision>(&e.payload)) {
        trace.decisions.push_back(*d);
      }
    });
  }
  for (const auto& spec : small_workload()) engine.submit(spec);
  engine.run();
  trace.summary = engine.summarize();
  return trace;
}

class DecisionTrace : public ::testing::TestWithParam<int> {};

TEST_P(DecisionTrace, EverySchedulerExplainsItsDecisions) {
  const auto entry =
      metrics::extended_schedulers()[static_cast<std::size_t>(GetParam())];
  const auto traced = run_traced(entry, true);

  ASSERT_FALSE(traced.decisions.empty()) << entry.label;
  std::size_t assigned = 0;
  for (const auto& d : traced.decisions) {
    EXPECT_FALSE(d.scheduler.empty());
    EXPECT_LE(d.ranking.size(), obs::kMaxRankedCandidates);
    if (d.assigned) {
      ++assigned;
      // Job-level schedulers (FIFO, EDF-JOB) name the wjob they picked.
      if (entry.label == "FIFO" || entry.label == "EDF-JOB") {
        EXPECT_NE(d.job, obs::SchedulerDecision::kNoJob);
      }
    } else {
      // An idle decision must still explain itself: either the queue was
      // empty or every ranked candidate was ineligible for the slot.
      EXPECT_EQ(d.workflow, 0u);
    }
  }
  // The workload runs to completion, so tasks were assigned via decisions:
  // exactly one record per started task (the workload runs no speculative
  // backups, which start without a decision).
  EXPECT_GT(assigned, 0u) << entry.label;
  EXPECT_EQ(assigned, traced.summary.tasks_executed) << entry.label;
  EXPECT_EQ(traced.summary.speculative_launched, 0u) << entry.label;
  for (const auto& wf : traced.summary.workflows) {
    EXPECT_FALSE(wf.failed) << entry.label;
    EXPECT_GE(wf.finish_time, 0) << entry.label;
  }
}

TEST_P(DecisionTrace, TracingDoesNotChangeScheduling) {
  const auto entry =
      metrics::extended_schedulers()[static_cast<std::size_t>(GetParam())];
  const auto quiet = run_traced(entry, false);
  const auto traced = run_traced(entry, true);
  EXPECT_EQ(quiet.summary.makespan, traced.summary.makespan);
  EXPECT_EQ(quiet.summary.tasks_executed, traced.summary.tasks_executed);
  EXPECT_EQ(quiet.summary.select_calls, traced.summary.select_calls);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, DecisionTrace, ::testing::Range(0, 7),
                         [](const auto& info) {
                           auto label =
                               metrics::extended_schedulers()
                                   [static_cast<std::size_t>(info.param)].label;
                           for (auto& c : label)
                             if (c == '-') c = '_';
                           return label;
                         });

// WOHA's ranking carries the explainability payload of the paper's Sec. III:
// per candidate the requirement F_i(ttd), the progress rho_i, and the lag
// score the Double Skip List ordered by (descending).
TEST(DecisionTraceWoha, RankingCarriesLagOrdering) {
  const metrics::SchedulerEntry entry{
      "WOHA", [] { return std::make_unique<core::WohaScheduler>(); }};
  const auto traced = run_traced(entry, true);

  bool saw_multi_candidate = false;
  for (const auto& d : traced.decisions) {
    for (std::size_t i = 1; i < d.ranking.size(); ++i) {
      // Descending lag: the head of the snapshot is the most-lagging
      // workflow as the queue stood after this decision.
      EXPECT_GE(d.ranking[i - 1].score, d.ranking[i].score);
      saw_multi_candidate = true;
    }
    for (const auto& c : d.ranking) {
      // lag = F - rho, so the ordering key must be consistent per candidate.
      EXPECT_EQ(c.score, static_cast<std::int64_t>(c.requirement) -
                             static_cast<std::int64_t>(c.rho));
    }
  }
  EXPECT_TRUE(saw_multi_candidate);
}

}  // namespace
}  // namespace woha
