// Master-scalability sweep: wall-clock cost of the heartbeat → select_task
// hot path as the cluster grows from paper scale (80 trackers) toward
// 10,000 trackers, for all five schedulers.
//
// The workload is frozen so numbers are comparable across engine changes:
// one Fig. 8 trace replica (46 workflows, 165 jobs) per 80 trackers, each
// replica drawn with its own seed — offered load scales with the slot pool,
// so the cluster stays saturated at every size. Reported per point:
// simulated makespan, events fired, select_task calls, mean select_task
// latency (the paper's master-overhead claim), and wall-clock runtime.
// Every run carries its own metrics registry; select_us/call is its
// engine.select_task_ns sum over the row's select calls.
//
// Usage:
//   bench_scale_cluster [--points 80,500,2000] [--schedulers WOHA-LPF,FIFO]
//                       [--jobs N] [--plan-jobs N]
//                       [--repeat N] [--metrics-json out.json]
// Defaults sweep 80/200/500/1000/2000 for every scheduler; pass
// --points 10000 (or 100000 for the 100k-tracker CI smoke) for the
// full-scale run (minutes of wall clock pre-optimisation, seconds after).
// `--jobs N` (or WOHA_JOBS) fans the (point, scheduler) grid across N
// threads — results are bit-identical to --jobs 1; per-run wall-clock is
// measured inside each run so rows stay meaningful under parallelism
// (total elapsed shrinks; per-run wall does not). `--plan-jobs N` sets
// WohaConfig::plan_jobs (parallel plan prewarm; 0 = hardware
// concurrency), a bit-identical knob too — it moves wall clock, never
// schedules. `--horizon-min N` stops the
// simulation after N simulated minutes (EngineConfig::horizon): the
// 100k-tracker CI smoke uses it to sample the hot path at full scale
// under a bounded wall budget. Unlike the other knobs it IS part of the
// simulated experiment — rows are deterministic for a given horizon but
// not comparable across horizons. `--repeat N` runs the whole grid N
// times and reports the per-row *median* wall clock (and per-select
// latency) — the CI perf smoke uses it to deflake its wall assertion;
// the deterministic columns are verified identical across repeats, and
// the metrics snapshot comes from the first repeat only, so the exported
// histogram sample counts match a --repeat-free run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "metrics/grid.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/paper_workloads.hpp"
#include "trace/scale_workload.hpp"

namespace {

std::vector<std::uint32_t> parse_points(const std::string& arg) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? arg.npos : comma - pos);
    if (!tok.empty()) out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace woha;
  bench::MetricsSession metrics_session(argc, argv);
  const bench::JobsFlag jobs(argc, argv);

  std::vector<std::uint32_t> points = {80, 200, 500, 1000, 2000};
  std::vector<std::string> only_schedulers;
  unsigned plan_jobs = 1;
  long long horizon_min = 0;  // 0 = run to completion
  unsigned repeat = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      points = parse_points(argv[++i]);
    } else if (std::strcmp(argv[i], "--horizon-min") == 0 && i + 1 < argc) {
      horizon_min = std::stoll(argv[++i]);
      if (horizon_min <= 0) {
        std::fprintf(stderr, "--horizon-min must be positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<unsigned>(std::stoul(argv[++i]));
      if (repeat == 0) {
        std::fprintf(stderr, "--repeat must be >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--plan-jobs") == 0 && i + 1 < argc) {
      const auto parsed = metrics::parse_jobs(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "--plan-jobs expects a plain decimal in [0, %u]\n",
                     metrics::kMaxJobs);
        return 2;
      }
      plan_jobs = *parsed;
    } else if (std::strcmp(argv[i], "--schedulers") == 0 && i + 1 < argc) {
      std::size_t pos = 0;
      const std::string arg = argv[++i];
      while (pos < arg.size()) {
        const std::size_t comma = arg.find(',', pos);
        only_schedulers.push_back(arg.substr(
            pos, comma == std::string::npos ? arg.npos : comma - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  bench::banner("Scale sweep",
                "heartbeat/select_task cost vs cluster size (frozen fig8 load)");
  std::printf("%-10s %-10s %12s %12s %12s %14s %10s\n", "trackers", "scheduler",
              "makespan", "events", "selects", "select_us/call", "wall_s");

  // Build the whole (cluster size, scheduler) grid up front; each cluster
  // size generates its workload once, borrowed by every scheduler's point.
  std::vector<std::unique_ptr<std::vector<wf::WorkflowSpec>>> workloads;
  std::vector<metrics::GridPoint> grid;
  std::vector<std::uint32_t> row_trackers;  // parallel to grid
  for (const std::uint32_t n : points) {
    hadoop::EngineConfig config;
    config.cluster.num_trackers = n;
    config.cluster.map_slots_per_tracker = 2;
    config.cluster.reduce_slots_per_tracker = 1;
    if (horizon_min > 0) config.horizon = minutes(horizon_min);
    workloads.push_back(std::make_unique<std::vector<wf::WorkflowSpec>>(
        trace::scale_workload(n, trace::kScaleWorkloadSeed)));
    for (const auto& entry : metrics::paper_schedulers(plan_jobs)) {
      if (!only_schedulers.empty()) {
        bool wanted = false;
        for (const auto& s : only_schedulers) wanted |= s == entry.label;
        if (!wanted) continue;
      }
      grid.push_back(metrics::GridPoint{config, workloads.back().get(), entry});
      row_trackers.push_back(n);
    }
  }

  metrics::GridOptions options;
  options.jobs = jobs.jobs();
  // One registry per run, replacing any scratch registry run_grid attached:
  // its engine.select_task_ns sum is the row's consult wall time.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> run_registries(grid.size());
  options.configure_point = [&run_registries](hadoop::Engine& engine, std::size_t i) {
    run_registries[i] = std::make_unique<obs::MetricsRegistry>();
    engine.set_metrics_registry(run_registries[i].get());
  };
  auto select_ns = [&run_registries](std::size_t i) {
    const obs::Histogram* h = run_registries[i]->find_histogram("engine.select_task_ns");
    return h != nullptr ? h->sum() : 0.0;
  };
  const auto t0 = std::chrono::steady_clock::now();
  // Repeat 0 carries the metrics hooks (grid.* instruments) and its
  // per-run registries are folded into the snapshot, so the exported
  // histogram sample counts match a --repeat-free run; later repeats only
  // re-measure wall clock and re-verify the deterministic columns.
  const auto results = metrics::run_grid(grid, options, metrics_session.hooks());
  std::vector<std::vector<double>> walls(results.size());
  std::vector<std::vector<double>> select_walls_ns(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    walls[i].push_back(results[i].wall_seconds);
    select_walls_ns[i].push_back(select_ns(i));
    if (obs::MetricsRegistry* session = metrics_session.registry()) {
      session->merge(*run_registries[i]);
    }
  }
  for (unsigned r = 1; r < repeat; ++r) {
    const auto rerun = metrics::run_grid(grid, options, metrics::ObsHooks{});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const hadoop::RunSummary& a = results[i].summary;
      const hadoop::RunSummary& b = rerun[i].summary;
      if (a.makespan != b.makespan || a.events_fired != b.events_fired ||
          a.select_calls != b.select_calls) {
        std::fprintf(stderr,
                     "repeat %u diverged on row %zu (%s @ %u trackers): "
                     "the deterministic columns must not move across repeats\n",
                     r, i, results[i].scheduler.c_str(), row_trackers[i]);
        return 1;
      }
      walls[i].push_back(rerun[i].wall_seconds);
      select_walls_ns[i].push_back(select_ns(i));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  for (std::size_t i = 0; i < results.size(); ++i) {
    const hadoop::RunSummary& s = results[i].summary;
    const double us_per_select =
        s.select_calls == 0
            ? 0.0
            : median(select_walls_ns[i]) / 1000.0 / static_cast<double>(s.select_calls);
    std::printf("%-10u %-10s %12lld %12llu %12llu %14.3f %10.2f\n",
                row_trackers[i], results[i].scheduler.c_str(),
                static_cast<long long>(s.makespan),
                static_cast<unsigned long long>(s.events_fired),
                static_cast<unsigned long long>(s.select_calls),
                us_per_select, median(walls[i]));
  }
  double run_seconds = 0.0;
  for (const auto& w : walls) {
    for (const double x : w) run_seconds += x;
  }
  std::printf("total: %.2f s elapsed for %.2f s of runs (jobs=%u, repeat=%u)\n",
              elapsed, run_seconds, ThreadPool::resolve(options.jobs), repeat);
  bench::note("select_us/call and wall_s are wall-clock and machine-dependent "
              "(medians across --repeat); makespan, events and selects are "
              "deterministic at any --jobs and verified across repeats.");
  return 0;
}
