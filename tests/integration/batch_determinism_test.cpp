// Heartbeat parking, batched consults and the parallel plan prewarm are
// wall-clock optimisations only: every golden this repo pins must come out
// bit-identical with parking on and off, with the auditor on and off,
// serially and under --jobs N, with plan prewarm serial and parallel. The
// goldens mix in events_fired and select_calls, so parked firings must be
// accounted exactly. A failure here means an optimisation changed a
// scheduling decision — fix the optimisation, never the golden.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/woha_scheduler.hpp"
#include "hadoop/engine.hpp"
#include "metrics/grid.hpp"
#include "metrics/metrics.hpp"
#include "overload_scenario.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"

namespace woha {
namespace {

std::uint64_t overload_digest(bool park, bool audit, unsigned jobs) {
  const auto workload = testing::overload_workload();
  auto grid = testing::overload_grid(workload);
  for (auto& point : grid) {
    point.config.park_idle_heartbeats = park;
    point.config.audit = audit;
  }
  metrics::GridOptions options;
  options.jobs = jobs;
  return testing::digest_overload(metrics::run_grid(grid, options));
}

std::uint64_t fig11_digest(bool park, bool audit, unsigned plan_jobs) {
  hadoop::EngineConfig config;
  config.audit = audit;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  config.park_idle_heartbeats = park;
  const auto results = metrics::run_comparison(
      config, trace::fig11_scenario(), metrics::paper_schedulers(plan_jobs));
  return testing::digest_comparison(results);
}

TEST(BatchDeterminism, OverloadGoldenParkedAndUnparkedAuditOn) {
  for (const bool park : {false, true}) {
    EXPECT_EQ(overload_digest(park, /*audit=*/true, /*jobs=*/1),
              testing::kOverloadChaosGolden)
        << "park=" << park;
  }
}

TEST(BatchDeterminism, OverloadGoldenParkedAndUnparkedAuditOff) {
  for (const bool park : {false, true}) {
    EXPECT_EQ(overload_digest(park, /*audit=*/false, /*jobs=*/1),
              testing::kOverloadChaosGolden)
        << "park=" << park;
  }
}

TEST(BatchDeterminism, OverloadGoldenUnderParallelGrid) {
  EXPECT_EQ(overload_digest(/*park=*/true, /*audit=*/false, /*jobs=*/2),
            testing::kOverloadChaosGolden);
}

TEST(BatchDeterminism, Fig11GoldenParkedAndUnparked) {
  for (const bool park : {false, true}) {
    EXPECT_EQ(fig11_digest(park, /*audit=*/true, /*plan_jobs=*/1),
              0x9c0440bbd4ecdad5ull)
        << "park=" << park << " audit=on";
    EXPECT_EQ(fig11_digest(park, /*audit=*/false, /*plan_jobs=*/1),
              0x9c0440bbd4ecdad5ull)
        << "park=" << park << " audit=off";
  }
}

TEST(BatchDeterminism, Fig11GoldenWithParallelPlanPrewarm) {
  // plan_jobs fans plan generation across a thread pool before the run;
  // installation is submission-ordered, so the digest cannot move.
  EXPECT_EQ(fig11_digest(/*park=*/true, /*audit=*/true, /*plan_jobs=*/4),
            0x9c0440bbd4ecdad5ull);
  EXPECT_EQ(fig11_digest(/*park=*/false, /*audit=*/false, /*plan_jobs=*/0),
            0x9c0440bbd4ecdad5ull);
}

TEST(BatchDeterminism, ScaleWorkload160GoldenWithBatchingAndPrewarm) {
  hadoop::EngineConfig config;
  config.audit = false;
  config.cluster.num_trackers = 160;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  const auto results = metrics::run_comparison(
      config, trace::scale_workload(160), metrics::paper_schedulers(4));
  EXPECT_EQ(testing::digest_comparison(results), 0x9406f11ab911f50cull);
}

TEST(BatchDeterminism, PrewarmKeepsPlanCacheTalliesSerial) {
  // Beyond the digest: the cache must report the same hit/miss split a
  // serial run sees — a claimed prewarm counts as the miss it replaced.
  const auto workload = trace::fig11_scenario();
  std::uint64_t serial_hits = 0, serial_misses = 0;
  std::uint64_t warm_hits = 0, warm_misses = 0;
  SimTime serial_makespan = 0, warm_makespan = 0;
  for (const unsigned plan_jobs : {1u, 4u}) {
    core::WohaConfig wc;
    wc.plan_jobs = plan_jobs;
    auto scheduler = std::make_unique<core::WohaScheduler>(wc);
    const core::WohaScheduler* raw = scheduler.get();
    hadoop::EngineConfig config;
    config.cluster = hadoop::ClusterConfig::paper_32_slaves();
    hadoop::Engine engine(config, std::move(scheduler));
    for (const auto& spec : workload) engine.submit(spec);
    engine.run();
    if (plan_jobs == 1) {
      serial_hits = raw->plan_cache().hits();
      serial_misses = raw->plan_cache().misses();
      serial_makespan = engine.summarize().makespan;
    } else {
      warm_hits = raw->plan_cache().hits();
      warm_misses = raw->plan_cache().misses();
      warm_makespan = engine.summarize().makespan;
    }
  }
  EXPECT_EQ(warm_hits, serial_hits);
  EXPECT_EQ(warm_misses, serial_misses);
  EXPECT_GT(warm_misses, 0u);  // the prewarmed plans were actually claimed
  EXPECT_EQ(warm_makespan, serial_makespan);
}

}  // namespace
}  // namespace woha
