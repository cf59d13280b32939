#include "trace/scale_workload.hpp"

#include <algorithm>

#include "trace/paper_workloads.hpp"

namespace woha::trace {

std::vector<wf::WorkflowSpec> scale_workload(std::uint32_t trackers,
                                             std::uint64_t seed) {
  const std::uint32_t replicas = std::max<std::uint32_t>(1, trackers / 80);
  std::vector<wf::WorkflowSpec> out;
  for (std::uint32_t r = 0; r < replicas; ++r) {
    auto part = fig8_trace(seed + r);
    // Reserve once: an exact-size reserve per replica would defeat
    // geometric growth and move every spec built so far each time.
    if (r == 0) out.reserve(part.size() * replicas);
    for (auto& w : part) out.push_back(std::move(w));
  }
  return out;
}

}  // namespace woha::trace
