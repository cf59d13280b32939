// `woha_dag` — command-line analogue of the paper's `hadoop dag w.xml`
// entry point: submit one or more workflow XML configurations to a simulated
// cluster and report deadline outcomes.
//
//   $ ./woha_dag [options] workflow1.xml [workflow2.xml ...]
//
// Options:
//   --scheduler=NAME    fifo | fair | edf | woha-hlf | woha-lpf | woha-mpf
//                       (default woha-lpf)
//   --trackers=N        number of slaves                (default 20)
//   --map-slots=N       map slots per slave             (default 2)
//   --reduce-slots=N    reduce slots per slave          (default 1)
//   --heartbeat=DUR     heartbeat period, e.g. 3s       (default 3s)
//   --failures=P        task attempt failure probability (default 0)
//   --dot               print each workflow's Graphviz DAG and exit
//
// With no workflow files, runs a built-in demo configuration.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/woha_scheduler.hpp"
#include "metrics/report.hpp"
#include "obs/metrics_registry.hpp"
#include "sched/edf_scheduler.hpp"
#include "sched/fair_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "workflow/config.hpp"
#include "workflow/dot.hpp"

using namespace woha;

namespace {

constexpr const char* kDemoXml = R"(<workflow name="demo-pipeline" deadline="20min">
  <job name="extract" maps="20" reduces="4" map-duration="40s" reduce-duration="90s"/>
  <job name="transform" maps="16" reduces="4" map-duration="35s" reduce-duration="80s">
    <depends on="extract"/>
  </job>
  <job name="load" maps="4" reduces="1" map-duration="20s" reduce-duration="45s">
    <depends on="transform"/>
  </job>
</workflow>)";

std::unique_ptr<hadoop::WorkflowScheduler> make_scheduler(const std::string& name) {
  if (name == "fifo") return std::make_unique<sched::FifoScheduler>();
  if (name == "fair") return std::make_unique<sched::FairScheduler>();
  if (name == "edf") return std::make_unique<sched::EdfScheduler>();
  if (starts_with(name, "woha")) {
    core::WohaConfig config;
    if (name == "woha-hlf") {
      config.job_priority = core::JobPriorityPolicy::kHlf;
    } else if (name == "woha-mpf") {
      config.job_priority = core::JobPriorityPolicy::kMpf;
    } else if (name == "woha-lpf" || name == "woha") {
      config.job_priority = core::JobPriorityPolicy::kLpf;
    } else {
      return nullptr;
    }
    return std::make_unique<core::WohaScheduler>(config);
  }
  return nullptr;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scheduler=NAME] [--trackers=N] [--map-slots=N]\n"
               "          [--reduce-slots=N] [--heartbeat=DUR] [--failures=P]\n"
               "          [--dot] [workflow.xml ...]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheduler_name = "woha-lpf";
  hadoop::EngineConfig config;
  config.cluster.num_trackers = 20;
  config.cluster.map_slots_per_tracker = 2;
  config.cluster.reduce_slots_per_tracker = 1;
  bool dot_only = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    try {
      if (starts_with(arg, "--scheduler=")) {
        scheduler_name = value_of("--scheduler=");
      } else if (starts_with(arg, "--trackers=")) {
        config.cluster.num_trackers =
            static_cast<std::uint32_t>(parse_int(value_of("--trackers=")));
      } else if (starts_with(arg, "--map-slots=")) {
        config.cluster.map_slots_per_tracker =
            static_cast<std::uint32_t>(parse_int(value_of("--map-slots=")));
      } else if (starts_with(arg, "--reduce-slots=")) {
        config.cluster.reduce_slots_per_tracker =
            static_cast<std::uint32_t>(parse_int(value_of("--reduce-slots=")));
      } else if (starts_with(arg, "--heartbeat=")) {
        config.cluster.heartbeat_period = parse_duration(value_of("--heartbeat="));
      } else if (starts_with(arg, "--failures=")) {
        config.task_failure_prob = parse_double(value_of("--failures="));
      } else if (arg == "--dot") {
        dot_only = true;
      } else if (arg == "--help" || arg == "-h" || starts_with(arg, "--")) {
        usage(argv[0]);
      } else {
        files.push_back(arg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument '%s': %s\n", arg.c_str(), e.what());
      return 2;
    }
  }

  // Load workflows (Configuration Validator step).
  std::vector<wf::WorkflowSpec> workflows;
  try {
    if (files.empty()) {
      std::printf("no workflow files given; running the built-in demo.\n\n");
      workflows.push_back(wf::load_workflow_string(kDemoXml));
    } else {
      for (const auto& path : files) {
        workflows.push_back(wf::load_workflow_file(path));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "configuration error: %s\n", e.what());
    return 1;
  }

  if (dot_only) {
    for (const auto& spec : workflows) std::printf("%s\n", wf::to_dot(spec).c_str());
    return 0;
  }

  auto scheduler = make_scheduler(scheduler_name);
  if (!scheduler) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", scheduler_name.c_str());
    return 2;
  }

  std::printf("cluster: %u slaves, %u map + %u reduce slots each; scheduler %s\n\n",
              config.cluster.num_trackers, config.cluster.map_slots_per_tracker,
              config.cluster.reduce_slots_per_tracker, scheduler->name().c_str());

  // The registry times every scheduler consult (engine.select_task_ns);
  // attaching it never changes a decision.
  obs::MetricsRegistry registry;
  hadoop::Engine engine(config, std::move(scheduler));
  engine.set_metrics_registry(&registry);
  for (const auto& spec : workflows) engine.submit(spec);
  engine.run();

  const auto summary = engine.summarize();
  const obs::Histogram* select_ns = registry.find_histogram("engine.select_task_ns");
  std::printf("%s\n", metrics::format_workflow_results(summary).c_str());
  std::printf("tasks: %llu attempts (%llu retried); utilization %.1f%%; "
              "master select calls: %llu (%.2f ms total)\n",
              static_cast<unsigned long long>(summary.tasks_executed),
              static_cast<unsigned long long>(summary.tasks_failed),
              summary.overall_utilization * 100.0,
              static_cast<unsigned long long>(summary.select_calls),
              select_ns != nullptr ? select_ns->sum() / 1e6 : 0.0);
  // Exit code reflects deadline satisfaction so the tool scripts cleanly.
  return summary.deadline_miss_ratio > 0.0 ? 3 : 0;
}
