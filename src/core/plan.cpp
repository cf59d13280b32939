#include "core/plan.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>

namespace woha::core {

std::uint64_t SchedulingPlan::required_at(Duration ttd) const {
  // Steps are sorted by strictly decreasing ttd. A step with step_ttd >= ttd
  // lies at or before the query instant, so its requirement applies.
  // Binary search for the first step with step_ttd < ttd; everything before
  // it applies.
  const auto it = std::lower_bound(
      step_ttd_.begin(), step_ttd_.end(), ttd,
      [](Duration step, Duration query) { return step >= query; });
  if (it == step_ttd_.begin()) return 0;
  return step_req_[static_cast<std::size_t>(it - step_ttd_.begin()) - 1];
}

namespace {

/// Remaining per-job counters during the client-side simulation.
struct SimJob {
  std::uint32_t maps_left;
  std::uint32_t reduces_left;
  std::uint32_t unfinished_prereqs;
  /// Max completion time among prerequisites whose final wave has been
  /// scheduled. A dependent activates at this instant once every
  /// prerequisite has committed — NOT at the completion time of the
  /// last-*scheduled* prerequisite, which can finish earlier than one
  /// scheduled before it (shorter reduce phase).
  SimTime ready_time = 0;
};

enum class EventType : std::uint8_t { kFree, kAdd };

struct Event {
  SimTime time;
  std::uint64_t seq;  // FIFO tie-break for determinism
  EventType type;
  std::uint32_t value;  // slot count (kFree) or job index (kAdd)
  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

}  // namespace

SchedulingPlan generate_plan(const wf::WorkflowSpec& spec,
                             std::uint32_t resource_cap,
                             const std::vector<std::uint32_t>& job_rank) {
  if (resource_cap == 0) throw std::invalid_argument("generate_plan: cap must be >= 1");
  if (job_rank.size() != spec.jobs.size()) {
    throw std::invalid_argument("generate_plan: job_rank size mismatch");
  }
  wf::validate(spec);

  const std::uint32_t njobs = static_cast<std::uint32_t>(spec.jobs.size());
  std::vector<SimJob> jobs(njobs);
  for (std::uint32_t j = 0; j < njobs; ++j) {
    jobs[j] = SimJob{spec.jobs[j].num_maps, spec.jobs[j].num_reduces,
                     static_cast<std::uint32_t>(spec.jobs[j].prerequisites.size())};
  }
  const auto dependents = wf::dependents(spec);

  // Active job queue A ordered by rank (rank 0 = highest priority).
  std::set<std::pair<std::uint32_t, std::uint32_t>> active;  // (rank, job)
  for (std::uint32_t j = 0; j < njobs; ++j) {
    if (jobs[j].unfinished_prereqs == 0) active.insert({job_rank[j], j});
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  events.push(Event{0, seq++, EventType::kFree, resource_cap});

  // Raw schedule trace: (time, tasks scheduled at that instant). Events pop
  // in time order, so `t` never decreases and appending keeps it sorted.
  std::vector<std::pair<SimTime, std::uint64_t>> schedule_counts;
  const auto record_wave = [&schedule_counts](SimTime when, std::uint32_t wave) {
    if (schedule_counts.empty() || schedule_counts.back().first != when) {
      schedule_counts.emplace_back(when, 0);
    }
    schedule_counts.back().second += wave;
  };

  std::uint32_t free_slots = 0;
  SimTime t = 0;

  while (!events.empty()) {
    // Drain all events at the head timestamp before making decisions, so
    // FREE and ADD events at the same instant are visible together.
    t = events.top().time;
    while (!events.empty() && events.top().time == t) {
      const Event e = events.top();
      events.pop();
      if (e.type == EventType::kFree) {
        free_slots += e.value;
      } else {
        active.insert({job_rank[e.value], e.value});
      }
    }

    // Greedily hand slots to the highest-priority active jobs.
    while (free_slots > 0 && !active.empty()) {
      const auto it = active.begin();
      const std::uint32_t j = it->second;
      SimJob& job = jobs[j];
      if (job.maps_left > 0) {
        const std::uint32_t wave = std::min(job.maps_left, free_slots);
        record_wave(t, wave);
        free_slots -= wave;
        job.maps_left -= wave;
        const SimTime done = t + spec.jobs[j].map_duration;
        events.push(Event{done, seq++, EventType::kFree, wave});
        if (job.maps_left == 0) {
          // Map phase fully scheduled; the job re-enters A when the last
          // map wave completes (reduce phase becomes available then).
          active.erase(it);
          if (job.reduces_left > 0) {
            events.push(Event{done, seq++, EventType::kAdd, j});
          } else {
            // Map-only job: completes with the map phase.
            for (std::uint32_t d : dependents[j]) {
              jobs[d].ready_time = std::max(jobs[d].ready_time, done);
              if (--jobs[d].unfinished_prereqs == 0) {
                events.push(Event{jobs[d].ready_time, seq++, EventType::kAdd, d});
              }
            }
          }
        }
      } else {
        const std::uint32_t wave = std::min(job.reduces_left, free_slots);
        record_wave(t, wave);
        free_slots -= wave;
        job.reduces_left -= wave;
        const SimTime done = t + spec.jobs[j].reduce_duration;
        events.push(Event{done, seq++, EventType::kFree, wave});
        if (job.reduces_left == 0) {
          active.erase(it);
          for (std::uint32_t d : dependents[j]) {
            jobs[d].ready_time = std::max(jobs[d].ready_time, done);
            if (--jobs[d].unfinished_prereqs == 0) {
              events.push(Event{jobs[d].ready_time, seq++, EventType::kAdd, d});
            }
          }
        }
      }
    }
  }

  SchedulingPlan plan;
  plan.resource_cap = resource_cap;
  plan.simulated_makespan = t;  // time of the last processed event
  plan.job_rank = job_rank;
  plan.job_order.resize(njobs);
  for (std::uint32_t j = 0; j < njobs; ++j) plan.job_order[job_rank[j]] = j;

  // Convert occurrence times to ttd (Algorithm 1 lines 37-39) and cumulative
  // counts; schedule_counts iterates in ascending time == descending ttd.
  std::uint64_t cumulative = 0;
  plan.reserve_steps(schedule_counts.size());
  for (const auto& [when, count] : schedule_counts) {
    cumulative += count;
    plan.append_step(plan.simulated_makespan - when, cumulative);
  }
  return plan;
}

}  // namespace woha::core
