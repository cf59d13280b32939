// Pins bit-identical metrics digests for the paper's Fig. 8 / Fig. 11
// workloads and the scale-sweep workload, across all five schedulers. These
// goldens were captured on the pre-optimisation engine (linear slot scans,
// chained-timer event queue) and must survive every hot-path change: the
// indexed freelists, the calendar event queue and the availability indices
// are required to be decision-identical, not just "roughly the same".
//
// If a test here fails, the scale work changed a scheduling decision — that
// is a bug in the optimisation, not a golden to refresh. Only refresh after
// an intentional semantic change, via:
//   WOHA_PRINT_GOLDENS=1 ./build/tests/integration_tests --gtest_filter='ScaleDeterminism.*'
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "metrics_digest.hpp"
#include "metrics/metrics.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"

namespace woha {
namespace {

bool print_goldens() { return std::getenv("WOHA_PRINT_GOLDENS") != nullptr; }

void check_digest(const char* label, std::uint64_t got, std::uint64_t want) {
  if (print_goldens()) {
    std::printf("golden %-24s 0x%016llxull\n", label,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, want) << label
                       << ": a deterministic metric changed. The hot-path "
                          "optimisations must be decision-identical; see the "
                          "file comment before touching this golden.";
}

TEST(ScaleDeterminism, Fig11Paper32Snapshot) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_32_slaves();
  const auto results = metrics::run_comparison(config, trace::fig11_scenario(),
                                               metrics::paper_schedulers());
  check_digest("fig11_paper32", testing::digest_comparison(results),
               0x9c0440bbd4ecdad5ull);
}

TEST(ScaleDeterminism, Fig8Paper80Snapshot) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::paper_80_servers();
  const auto results = metrics::run_comparison(config, trace::fig8_trace(),
                                               metrics::paper_schedulers());
  check_digest("fig8_paper80", testing::digest_comparison(results),
               0x59e3378f75ea6305ull);
}

TEST(ScaleDeterminism, Fig8Slots200Snapshot) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster = hadoop::ClusterConfig::with_totals(200, 200);
  const auto results = metrics::run_comparison(config, trace::fig8_trace(),
                                               metrics::paper_schedulers());
  check_digest("fig8_200m200r", testing::digest_comparison(results),
               0xb7bf39fe07904c4bull);
}

// The bench workload itself, at a size small enough for ctest: two fig8
// replicas on 160 trackers. Pinning this digest keeps bench/scale_cluster
// results comparable across future engine changes.
TEST(ScaleDeterminism, ScaleWorkload160Snapshot) {
  hadoop::EngineConfig config;
  config.audit = true;
  config.cluster.num_trackers = 160;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  const auto results =
      metrics::run_comparison(config, trace::scale_workload(160),
                              metrics::paper_schedulers());
  check_digest("scale_160", testing::digest_comparison(results),
               0x9406f11ab911f50cull);
}

}  // namespace
}  // namespace woha
