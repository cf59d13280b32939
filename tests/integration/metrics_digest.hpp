// Deterministic digest of a scheduler-comparison run, used to pin
// bit-identical metrics snapshots across engine refactors (the scale-out
// work must never change a single scheduling decision on the paper's
// workloads). Wall-clock fields (histogram sums) are excluded; everything
// else — per-workflow outcomes, counters, event totals — feeds an FNV-1a
// digest.
//
// Regenerating goldens after an *intentional* behaviour change:
//   WOHA_PRINT_GOLDENS=1 ./build/tests/integration_tests --gtest_filter='ScaleDeterminism.*'
// then paste the printed values into scale_determinism_test.cpp.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/report.hpp"

namespace woha::testing {

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest every deterministic field of a multi-scheduler comparison, in
/// scheduler order. The digest covers per-run aggregates AND per-workflow
/// outcomes, so any divergence in any scheduling decision that affects an
/// observable result flips it.
inline std::uint64_t digest_comparison(
    const std::vector<metrics::ExperimentResult>& results) {
  Fnv1a h;
  for (const metrics::ExperimentResult& r : results) {
    const hadoop::RunSummary& s = r.summary;
    h.mix(r.scheduler);
    h.mix(s.makespan);
    h.mix(s.deadline_miss_ratio);
    h.mix(s.max_tardiness);
    h.mix(s.total_tardiness);
    h.mix(s.map_slot_utilization);
    h.mix(s.reduce_slot_utilization);
    h.mix(s.overall_utilization);
    h.mix(s.tasks_executed);
    h.mix(s.tasks_failed);
    h.mix(s.events_fired);
    h.mix(s.select_calls);
    h.mix(s.map_locality_ratio);
    h.mix(s.tracker_crashes);
    h.mix(s.attempts_killed);
    h.mix(s.map_outputs_lost);
    h.mix(s.workflows_failed);
    h.mix(s.blacklistings);
    h.mix(s.speculative_launched);
    h.mix(s.speculative_won);
    h.mix(s.speculative_wasted_ms);
    for (const hadoop::WorkflowResult& w : s.workflows) {
      h.mix(w.submit_time);
      h.mix(w.deadline);
      h.mix(w.finish_time);
      h.mix(w.workspan);
      h.mix(w.tardiness);
      h.mix(w.met_deadline);
      h.mix(w.failed);
    }
  }
  return h.value();
}

}  // namespace woha::testing
