#include "workloads.hpp"

#include <chrono>
#include <stdexcept>

#include "hadoop/admission.hpp"
#include "metrics/metrics.hpp"
#include "trace/arrivals.hpp"
#include "trace/deadlines.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"

namespace woha::perfbench {

namespace {

/// Runs one trace:: generator call, adding its host time to `total_s`.
template <typename F>
auto timed(double& total_s, F&& generate) {
  const auto t0 = std::chrono::steady_clock::now();
  auto out = generate();
  total_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  return out;
}

metrics::SchedulerEntry by_label(const std::vector<metrics::SchedulerEntry>& roster,
                                 const std::string& label) {
  for (const auto& entry : roster) {
    if (entry.label == label) return entry;
  }
  throw std::logic_error("scheduler roster has no " + label);
}

hadoop::EngineConfig scale_cluster(std::uint32_t trackers, Duration horizon) {
  hadoop::EngineConfig config;
  config.cluster.num_trackers = trackers;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  config.horizon = horizon;
  return config;
}

/// Fig. 8: five trace replicas on the paper's three cluster sizes under all
/// six schedulers, default engine settings.
Workload paper_fig8(std::uint64_t seed, Size size) {
  Workload w;
  const std::uint64_t replicas = size == Size::kTiny ? 1 : 5;
  auto clusters = metrics::paper_cluster_sizes();
  if (size == Size::kTiny) clusters.resize(1);
  for (std::uint64_t k = 0; k < replicas; ++k) {
    w.inputs.push_back(timed(w.generate_s, [&] { return trace::fig8_trace(seed + k); }));
    for (const auto& cp : clusters) {
      hadoop::EngineConfig config;
      config.cluster = hadoop::ClusterConfig::with_totals(cp.map_slots, cp.reduce_slots);
      for (const auto& entry : metrics::paper_schedulers()) {
        w.runs.push_back(Run{config, w.inputs.size() - 1, entry});
      }
    }
  }
  return w;
}

/// The ROADMAP headline point: 100k trackers, five simulated minutes,
/// WOHA-LPF with the parallel plan prewarm.
Workload scale_100k(std::uint64_t seed, Size size, unsigned threads) {
  Workload w;
  const std::uint32_t trackers = size == Size::kTiny ? 800 : 100000;
  w.inputs.push_back(
      timed(w.generate_s, [&] { return trace::scale_workload(trackers, seed); }));
  w.runs.push_back(Run{scale_cluster(trackers, minutes(5)), 0,
                       by_label(metrics::paper_schedulers(threads), "WOHA-LPF")});
  return w;
}

/// Overload plus node churn plus task failures: tight deadlines, open-loop
/// Poisson arrivals past saturation, shedding, speculation, blacklisting.
Workload churn_500(std::uint64_t seed, Size size) {
  Workload w;
  const std::uint32_t trackers = size == Size::kTiny ? 80 : 500;
  hadoop::EngineConfig config = scale_cluster(trackers, kTimeInfinity);
  w.inputs.push_back(timed(w.generate_s, [&] {
    auto specs = trace::scale_workload(trackers, seed);
    trace::DeadlinePolicy tight;
    tight.slack_lo = 1.05;
    tight.slack_hi = 1.4;
    trace::assign_deadlines(specs, seed, tight);
    trace::ArrivalConfig arrivals;
    arrivals.shape = trace::ArrivalShape::kPoisson;
    arrivals.rho = 1.3;
    arrivals.cluster_slots = config.cluster.total_slots();
    trace::assign_open_loop_arrivals(specs, seed, arrivals);
    return specs;
  }));
  config.seed = 23;
  config.duration_jitter_sigma = 0.3;
  config.task_failure_prob = 0.02;
  config.admission.policy = hadoop::AdmissionPolicy::kShedLatestDeadlineFirst;
  config.admission.max_pending_workflows = 50;
  config.faults.tracker_mtbf = static_cast<double>(hours(4));
  config.faults.tracker_restart_delay = seconds(60);
  config.faults.expiry_interval = seconds(60);
  config.faults.speculative_execution = true;
  config.faults.max_attempts = 4;
  config.faults.blacklist_task_failures = 3;
  w.runs.push_back(Run{config, 0, by_label(metrics::paper_schedulers(), "WOHA-MPF")});
  return w;
}

/// The only workload with an active event bus: span recorder and metrics
/// registry attached, which turns off the engine's memo, early-out and
/// batching shortcuts.
Workload observed_10k(std::uint64_t seed, Size size, unsigned threads) {
  Workload w;
  const std::uint32_t trackers = size == Size::kTiny ? 400 : 10000;
  w.inputs.push_back(
      timed(w.generate_s, [&] { return trace::scale_workload(trackers, seed); }));
  w.runs.push_back(Run{scale_cluster(trackers, minutes(10)), 0,
                       by_label(metrics::paper_schedulers(threads), "WOHA-LPF")});
  w.observed = true;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_fig8", "scale_100k",
                                                 "churn_500", "observed_10k"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       unsigned threads) {
  Workload w;
  if (name == "paper_fig8") {
    w = paper_fig8(seed, size);
  } else if (name == "scale_100k") {
    w = scale_100k(seed, size, threads);
  } else if (name == "churn_500") {
    w = churn_500(seed, size);
  } else if (name == "observed_10k") {
    w = observed_10k(seed, size, threads);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.name = name;
  return w;
}

}  // namespace woha::perfbench
