// Decision digest of one engine run: an FNV-1a hash (the hasher of
// tests/integration/metrics_digest.hpp) over the simulated RunSummary
// results and every per-workflow outcome, including the admission and
// shedding fields. Host-time fields are excluded, and so are events_fired
// and select_calls: they count engine bookkeeping, which a refactor may
// change without changing a single decision. Equal digests mean the run
// took the same scheduling decisions.
#pragma once

#include <cstdint>
#include <string>

#include "hadoop/engine.hpp"
#include "integration/metrics_digest.hpp"

namespace woha::perfbench {

inline std::uint64_t digest_run(const std::string& scheduler,
                                const hadoop::RunSummary& s) {
  testing::Fnv1a h;
  h.mix(scheduler);
  h.mix(s.makespan);
  h.mix(s.deadline_miss_ratio);
  h.mix(s.max_tardiness);
  h.mix(s.total_tardiness);
  h.mix(s.map_slot_utilization);
  h.mix(s.reduce_slot_utilization);
  h.mix(s.overall_utilization);
  h.mix(s.tasks_executed);
  h.mix(s.tasks_failed);
  h.mix(s.map_locality_ratio);
  h.mix(s.tracker_crashes);
  h.mix(s.attempts_killed);
  h.mix(s.map_outputs_lost);
  h.mix(s.workflows_failed);
  h.mix(s.blacklistings);
  h.mix(s.speculative_launched);
  h.mix(s.speculative_won);
  h.mix(s.speculative_wasted_ms);
  h.mix(s.workflows_submitted);
  h.mix(s.workflows_rejected);
  h.mix(s.workflows_shed);
  h.mix(static_cast<std::uint64_t>(s.pending_peak));
  for (const hadoop::WorkflowResult& w : s.workflows) {
    h.mix(w.submit_time);
    h.mix(w.deadline);
    h.mix(w.finish_time);
    h.mix(w.workspan);
    h.mix(w.tardiness);
    h.mix(w.met_deadline);
    h.mix(w.failed);
    h.mix(w.rejected);
    h.mix(w.shed);
  }
  return h.value();
}

}  // namespace woha::perfbench
