// The benchmark's four workloads, built through the public library API from
// a seed. perfbench/README.md records why each one was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hadoop/engine.hpp"
#include "metrics/report.hpp"
#include "workflow/workflow.hpp"

namespace woha::perfbench {

/// `kTiny` shrinks every workload to a seconds-long variant with the same
/// configuration shape; the self-test uses it.
enum class Size : std::uint8_t { kFull, kTiny };

/// One engine run: a config, the index of its input in Workload::inputs,
/// and the scheduler roster entry that builds its scheduler.
struct Run {
  hadoop::EngineConfig config;
  std::size_t input = 0;
  metrics::SchedulerEntry scheduler;
};

struct Workload {
  std::string name;
  std::vector<std::vector<wf::WorkflowSpec>> inputs;
  std::vector<Run> runs;
  /// Attach a forensics::SpanRecorder and an obs::MetricsRegistry to every
  /// engine, as tools/explain does (an active event bus).
  bool observed = false;
  /// Host seconds spent inside trace:: generator calls while building it.
  double generate_s = 0.0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name. `threads` caps the
/// WOHA plan-prewarm pool of the workloads that use it.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     Size size, unsigned threads);

}  // namespace woha::perfbench
