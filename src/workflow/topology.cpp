#include "workflow/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace woha::wf {
namespace {

JobSpec make_job(std::string name, const JobShape& shape) {
  JobSpec job;
  job.name = std::move(name);
  job.num_maps = shape.num_maps;
  job.num_reduces = shape.num_reduces;
  job.map_duration = shape.map_duration;
  job.reduce_duration = shape.reduce_duration;
  return job;
}

}  // namespace

WorkflowSpec chain(std::uint32_t length, const JobShape& shape) {
  if (length == 0) throw std::invalid_argument("chain: length must be >= 1");
  WorkflowSpec spec;
  spec.name = "chain-" + std::to_string(length);
  for (std::uint32_t j = 0; j < length; ++j) {
    JobSpec job = make_job("stage-" + std::to_string(j), shape);
    if (j > 0) job.prerequisites.push_back(j - 1);
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

WorkflowSpec diamond(std::uint32_t width, const JobShape& shape) {
  if (width == 0) throw std::invalid_argument("diamond: width must be >= 1");
  WorkflowSpec spec;
  spec.name = "diamond-" + std::to_string(width);
  spec.jobs.push_back(make_job("source", shape));
  for (std::uint32_t j = 0; j < width; ++j) {
    JobSpec job = make_job("branch-" + std::to_string(j), shape);
    job.prerequisites.push_back(0);
    spec.jobs.push_back(std::move(job));
  }
  JobSpec sink = make_job("sink", shape);
  for (std::uint32_t j = 0; j < width; ++j) sink.prerequisites.push_back(1 + j);
  spec.jobs.push_back(std::move(sink));
  return spec;
}

WorkflowSpec fan_in(std::uint32_t width, const JobShape& shape) {
  if (width == 0) throw std::invalid_argument("fan_in: width must be >= 1");
  WorkflowSpec spec;
  spec.name = "fanin-" + std::to_string(width);
  for (std::uint32_t j = 0; j < width; ++j) {
    spec.jobs.push_back(make_job("source-" + std::to_string(j), shape));
  }
  JobSpec sink = make_job("sink", shape);
  for (std::uint32_t j = 0; j < width; ++j) sink.prerequisites.push_back(j);
  spec.jobs.push_back(std::move(sink));
  return spec;
}

WorkflowSpec fig2_two_job_workflow(Duration unit) {
  WorkflowSpec spec;
  spec.name = "fig2-two-job";
  JobSpec job1;
  job1.name = "job-1";
  job1.num_maps = 3;
  job1.num_reduces = 3;
  job1.map_duration = unit;
  job1.reduce_duration = unit;
  JobSpec job2 = job1;
  job2.name = "job-2";
  job2.prerequisites.push_back(0);
  spec.jobs.push_back(std::move(job1));
  spec.jobs.push_back(std::move(job2));
  return spec;
}

WorkflowSpec paper_fig7_topology() {
  WorkflowSpec spec;
  spec.name = "fig7-analytics-33";

  // Layer sizes: 3 ingest, 8 parse, 8 aggregate, 6 join, 4 stats, 3 report,
  // 1 publish = 33 jobs over 7 levels.
  struct Layer {
    const char* label;
    std::uint32_t count;
    std::uint32_t maps;
    std::uint32_t reduces;
    Duration map_dur;
    Duration reduce_dur;
  };
  const Layer layers[] = {
      // Ingest: big map-heavy scans of raw logs.
      {"ingest", 3, 56, 10, seconds(80), seconds(150)},
      // Parse/filter: medium jobs, one per log category.
      {"parse", 8, 28, 6, seconds(70), seconds(140)},
      // Aggregate: shuffle-heavy, fewer but longer reduces.
      {"aggregate", 8, 26, 8, seconds(60), seconds(200)},
      // Join: combine aggregate outputs pairwise.
      {"join", 6, 30, 7, seconds(75), seconds(240)},
      // Stats: smaller summaries.
      {"stats", 4, 20, 6, seconds(60), seconds(160)},
      // Report generation.
      {"report", 3, 12, 3, seconds(50), seconds(160)},
      // Final publish step (single small job gating workflow completion).
      {"publish", 1, 6, 2, seconds(40), seconds(170)},
  };

  std::vector<std::uint32_t> prev_layer;  // indices of the previous layer's jobs
  for (const Layer& layer : layers) {
    std::vector<std::uint32_t> this_layer;
    for (std::uint32_t k = 0; k < layer.count; ++k) {
      JobSpec job;
      job.name = std::string(layer.label) + "-" + std::to_string(k);
      job.num_maps = layer.maps;
      job.num_reduces = layer.reduces;
      job.map_duration = layer.map_dur;
      job.reduce_duration = layer.reduce_dur;
      if (!prev_layer.empty()) {
        // Each job depends on 1-3 jobs of the previous layer, spread evenly
        // so the DAG has both fan-out and fan-in (deterministic pattern).
        const std::uint32_t p = static_cast<std::uint32_t>(prev_layer.size());
        job.prerequisites.push_back(prev_layer[k % p]);
        if (layer.count < p) {
          job.prerequisites.push_back(prev_layer[(k + 1) % p]);
          if (p > 2 && k % 2 == 0) {
            job.prerequisites.push_back(prev_layer[(k + 2) % p]);
          }
        }
        // De-duplicate in the unlikely case the modular pattern collided.
        std::sort(job.prerequisites.begin(), job.prerequisites.end());
        job.prerequisites.erase(
            std::unique(job.prerequisites.begin(), job.prerequisites.end()),
            job.prerequisites.end());
      }
      this_layer.push_back(static_cast<std::uint32_t>(spec.jobs.size()));
      spec.jobs.push_back(std::move(job));
    }
    prev_layer = std::move(this_layer);
  }
  validate(spec);
  return spec;
}

WorkflowSpec random_dag(Rng& rng, const RandomDagParams& params) {
  if (params.num_jobs == 0) throw std::invalid_argument("random_dag: num_jobs == 0");
  if (params.num_layers == 0) throw std::invalid_argument("random_dag: num_layers == 0");
  WorkflowSpec spec;
  spec.name = "random-dag-" + std::to_string(params.num_jobs);

  // Assign each job to a layer; every layer gets at least one job when
  // possible so chains stay long.
  const std::uint32_t layers = std::min(params.num_layers, params.num_jobs);
  std::vector<std::vector<std::uint32_t>> layer_jobs(layers);
  for (std::uint32_t j = 0; j < params.num_jobs; ++j) {
    const std::uint32_t layer =
        j < layers ? j
                   : static_cast<std::uint32_t>(rng.uniform_int(0, layers - 1));
    layer_jobs[layer].push_back(j);
  }

  spec.jobs.resize(params.num_jobs);
  for (std::uint32_t layer = 0; layer < layers; ++layer) {
    for (std::uint32_t j : layer_jobs[layer]) {
      JobSpec& job = spec.jobs[j];
      job.name = std::to_string(layer);
      job.name.insert(job.name.begin(), 'L');
      job.name += "-j";
      job.name += std::to_string(j);
      auto jitter = [&rng](std::int64_t base) {
        return std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                             static_cast<double>(base) *
                                             rng.uniform(0.5, 1.5)));
      };
      job.num_maps = static_cast<std::uint32_t>(jitter(params.shape.num_maps));
      job.num_reduces =
          static_cast<std::uint32_t>(jitter(std::max<std::uint32_t>(params.shape.num_reduces, 1)));
      job.map_duration = jitter(params.shape.map_duration);
      job.reduce_duration = jitter(params.shape.reduce_duration);
      if (layer > 0) {
        const auto& prev = layer_jobs[layer - 1];
        const std::uint32_t nparents = static_cast<std::uint32_t>(rng.uniform_int(
            1, std::min<std::int64_t>(params.max_parents, static_cast<std::int64_t>(prev.size()))));
        for (std::uint32_t p = 0; p < nparents; ++p) {
          job.prerequisites.push_back(
              prev[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1))]);
        }
        std::sort(job.prerequisites.begin(), job.prerequisites.end());
        job.prerequisites.erase(
            std::unique(job.prerequisites.begin(), job.prerequisites.end()),
            job.prerequisites.end());
      }
    }
  }
  validate(spec);
  return spec;
}

}  // namespace woha::wf
