// woha_bench — runs one pass of one benchmark workload and reports it.
//
//   woha_bench --workload NAME --seed N --pass timed|traced
//              [--seconds S] [--size full|tiny] [--abort-after-runs N]
//
// timed   builds the workload several times (set-up), then repeats the whole
//         workload until S seconds of runs have been measured. No tracing.
// traced  builds the workload once, then alternates an untraced pass with a
//         pass whose schedulers are wrapped in the TimedScheduler decorator
//         until S seconds have been measured, and reports the per-layer
//         ledger.
//
// Every finished engine run prints "run <index> <digest> ok|bad:<why>" as
// soon as it ends, so a caller that loses the process to a crash still
// knows how many runs it attempted. The last line is "result <json>".
// perfbench/run.py drives this binary in a child process; see
// perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "digest.hpp"
#include "forensics/span_recorder.hpp"
#include "hadoop/engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WOHA_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define WOHA_BENCH_SANITIZED 1
#endif
#endif

#ifndef WOHA_BENCH_BUILD_TYPE
#define WOHA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef WOHA_BENCH_CXX_FLAGS
#define WOHA_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef WOHA_BENCH_COMPILER
#define WOHA_BENCH_COMPILER __VERSION__
#endif

using namespace woha;
using perfbench::Bucket;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string pass;
  double seconds = 10.0;
  perfbench::Size size = perfbench::Size::kFull;
  long abort_after_runs = -1;
};

int usage() {
  std::fprintf(stderr,
               "usage: woha_bench --workload NAME --seed N --pass timed|traced\n"
               "                  [--seconds S] [--size full|tiny] [--abort-after-runs N]\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::stoull(v);
    } else if (arg == "--pass") {
      o.pass = v;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(v);
    } else if (arg == "--size") {
      if (v != "full" && v != "tiny") return std::nullopt;
      o.size = v == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
    } else if (arg == "--abort-after-runs") {
      o.abort_after_runs = std::stol(v);
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || (o.pass != "timed" && o.pass != "traced")) {
    return std::nullopt;
  }
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Sanity checks on one run's summary that hold for every workload. Returns
/// an empty string when the run is consistent.
std::string check_summary(const hadoop::RunSummary& s, const perfbench::Run& run,
                          std::size_t input_size) {
  if (s.events_fired == 0 || s.tasks_executed == 0) return "no-work";
  std::uint64_t with_deadline = 0;
  std::uint64_t missed = 0;
  Duration tardiness = 0;
  for (const auto& w : s.workflows) {
    tardiness += w.tardiness;
    if (w.deadline == kTimeInfinity) continue;
    ++with_deadline;
    missed += w.met_deadline ? 0 : 1;
    if (w.met_deadline && (w.finish_time < 0 || w.finish_time > w.deadline)) {
      return "met-deadline-but-late";
    }
  }
  const double ratio =
      with_deadline ? static_cast<double>(missed) / static_cast<double>(with_deadline)
                    : 0.0;
  if (ratio != s.deadline_miss_ratio) return "miss-ratio-mismatch";
  if (tardiness != s.total_tardiness) return "tardiness-mismatch";
  if (s.workflows.size() > input_size) return "too-many-workflows";
  const bool runs_to_completion = run.config.horizon == kTimeInfinity &&
                                  !run.config.admission.enabled() &&
                                  run.config.faults.max_attempts == 0;
  if (runs_to_completion) {
    if (s.workflows.size() != input_size) return "workflow-count";
    for (const auto& w : s.workflows) {
      if (w.finish_time < 0) return "unfinished-workflow";
    }
  }
  return {};
}

struct RunOutcome {
  hadoop::RunSummary summary;
  double wall_s = 0.0;      ///< engine build + submit + run + summarize
  double run_wall_s = 0.0;  ///< Engine::run() alone
};

/// One engine run. With a ledger, the scheduler is wrapped in the
/// TimedScheduler decorator and Engine::run() is bracketed by the ledger.
RunOutcome run_once(const perfbench::Run& run, const std::vector<wf::WorkflowSpec>& input,
                    bool observed, perfbench::Ledger* ledger) {
  RunOutcome out;
  const auto t0 = Clock::now();
  // Declared before the engine, which keeps a pointer to it.
  std::optional<obs::MetricsRegistry> registry;
  std::unique_ptr<hadoop::WorkflowScheduler> scheduler = run.scheduler.make();
  if (ledger) {
    scheduler = std::make_unique<perfbench::TimedScheduler>(std::move(scheduler), ledger);
  }
  hadoop::Engine engine(run.config, std::move(scheduler));
  std::optional<forensics::SpanRecorder> recorder;
  if (observed) {
    registry.emplace();
    engine.set_metrics_registry(&*registry);
    recorder.emplace(engine.events(), &engine.job_tracker());
  }
  for (const auto& spec : input) engine.submit(spec);
  const auto r0 = Clock::now();
  if (ledger) ledger->begin_run();
  engine.run();
  if (ledger) ledger->end_run();
  out.run_wall_s = seconds_since(r0);
  out.summary = engine.summarize();
  out.wall_s = seconds_since(t0);
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void list_member(obs::JsonWriter& j, const std::string& key,
                 const std::vector<double>& xs) {
  j.key(key);
  j.begin_array();
  for (const double x : xs) j.value(x);
  j.end_array();
}

double percentile(std::vector<std::uint32_t> xs, double q) {
  if (xs.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
  return xs[k];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-pass accumulation of the simulated results and the run checks.
struct PassTally {
  std::uint64_t runs = 0;
  std::uint64_t bad_runs = 0;
  std::uint64_t digest = 0;
  std::vector<double> run_walls;  ///< per run: build + submit + run + summarize
  double wall_s = 0.0;
  double run_wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t tasks = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t attempts_killed = 0;
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_won = 0;
  double miss_ratio_sum = 0.0;
  double tardiness_h_sum = 0.0;
};

class Runner {
 public:
  Runner(const Options& opt, const perfbench::Workload& w) : opt_(opt), w_(w) {}

  /// Runs every engine run of the workload once. Run digests are checked
  /// against the first pass; a run that differs, or fails its summary
  /// checks, counts as bad.
  PassTally pass(perfbench::Ledger* ledger, bool observed) {
    PassTally t;
    testing::Fnv1a pass_digest;
    for (std::size_t i = 0; i < w_.runs.size(); ++i) {
      const perfbench::Run& run = w_.runs[i];
      const auto& input = w_.inputs[run.input];
      const RunOutcome r = run_once(run, input, observed, ledger);
      const std::uint64_t d = perfbench::digest_run(run.scheduler.label, r.summary);
      std::string why = check_summary(r.summary, run, input.size());
      if (first_digests_.size() <= i) first_digests_.push_back(d);
      if (why.empty() && first_digests_[i] != d) why = "digest-changed";
      std::printf("run %" PRIu64 " %s %s\n", started_, hex(d).c_str(),
                  why.empty() ? "ok" : ("bad:" + why).c_str());
      std::fflush(stdout);
      ++started_;
      if (opt_.abort_after_runs >= 0 &&
          started_ >= static_cast<std::uint64_t>(opt_.abort_after_runs)) {
        std::fprintf(stderr, "woha_bench: aborting on request\n");
        std::abort();
      }
      pass_digest.mix(d);
      ++t.runs;
      t.bad_runs += why.empty() ? 0 : 1;
      t.run_walls.push_back(r.wall_s);
      t.wall_s += r.wall_s;
      t.run_wall_s += r.run_wall_s;
      const auto& s = r.summary;
      t.events += s.events_fired;
      t.tasks += s.tasks_executed;
      t.select_calls += s.select_calls;
      t.attempts_killed += s.attempts_killed;
      t.speculative_launched += s.speculative_launched;
      t.speculative_won += s.speculative_won;
      t.miss_ratio_sum += s.deadline_miss_ratio;
      t.tardiness_h_sum += static_cast<double>(s.total_tardiness) / hours(1);
    }
    t.digest = pass_digest.value();
    return t;
  }

 private:
  const Options& opt_;
  const perfbench::Workload& w_;
  std::vector<std::uint64_t> first_digests_;
  std::uint64_t started_ = 0;
};

void host_member(obs::JsonWriter& j, const Options& opt, unsigned threads) {
  j.key("host");
  j.begin_object();
  j.member("nproc", std::thread::hardware_concurrency());
  j.member("thread_cap", threads);
  j.member("compiler", WOHA_BENCH_COMPILER);
  j.member("build_type", WOHA_BENCH_BUILD_TYPE);
  j.member("cxx_flags", WOHA_BENCH_CXX_FLAGS);
  j.member("size", opt.size == perfbench::Size::kTiny ? "tiny" : "full");
  j.end_object();
}

/// Keeps repeating `body` until `seconds` of measured time have passed
/// (at least once).
template <typename F>
void repeat_for(double seconds, F&& body) {
  double measured = 0.0;
  do {
    measured += body();
  } while (measured < seconds);
}

int run_timed(const Options& opt, unsigned threads) {
  // Set-up: build the workload several times and keep the last build, so
  // setup_s is a median rather than one cold sample. At least three builds,
  // more until a second of them has been measured.
  std::vector<double> setup_s;
  perfbench::Workload w;
  double setup_total = 0.0;
  while (setup_s.size() < 3 || (setup_total < 1.0 && setup_s.size() < 1000)) {
    w = {};
    const auto t0 = Clock::now();
    w = perfbench::make_workload(opt.workload, opt.seed, opt.size, threads);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  }

  Runner runner(opt, w);
  std::vector<double> pass_wall;
  std::vector<double> run_wall;
  std::uint64_t bad_runs = 0;
  std::uint64_t runs = 0;
  std::uint64_t digest = 0;
  PassTally first;
  double rss_mb = 0.0;
  repeat_for(opt.seconds, [&] {
    const PassTally t = runner.pass(nullptr, w.observed);
    run_wall.insert(run_wall.end(), t.run_walls.begin(), t.run_walls.end());
    if (pass_wall.empty()) {
      // Peak after set-up and one pass: later passes only add allocator
      // fragmentation, which would make the figure depend on the pass count.
      rss_mb = peak_rss_mb();
      first = t;
      digest = t.digest;
    }
    pass_wall.push_back(t.wall_s);
    runs += t.runs;
    bad_runs += t.bad_runs;
    return t.wall_s;
  });

  obs::JsonWriter j;
  j.begin_object();
  j.member("pass", "timed");
  j.member("workload", w.name);
  j.member("seed", opt.seed);
  host_member(j, opt, threads);
  j.member("runs", runs);
  j.member("bad_runs", bad_runs);
  j.member("runs_per_pass", static_cast<std::uint64_t>(w.runs.size()));
  j.member("digest", hex(digest));
  list_member(j, "setup_s", setup_s);
  list_member(j, "pass_wall_s", pass_wall);
  list_member(j, "run_wall_s", run_wall);
  j.member("events", first.events);
  j.member("tasks", first.tasks);
  j.member("deadline_miss_ratio", first.miss_ratio_sum / static_cast<double>(first.runs));
  j.member("total_tardiness_h", first.tardiness_h_sum / static_cast<double>(first.runs));
  j.member("peak_rss_mb", rss_mb);
  j.end_object();
  std::printf("result %s\n", j.str().c_str());
  return 0;
}

/// The per-layer metrics of the traced passes, per pass, as members of the
/// current object.
void ledger_members(obs::JsonWriter& j, const perfbench::Ledger& l, const PassTally& t,
                    double passes) {
  const auto s = [&](Bucket b) { return static_cast<double>(l.ns(b)) / 1e9 / passes; };
  const auto per_pass = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(static_cast<double>(n) / passes);
  };
  double buckets = 0.0;
  for (std::size_t b = 0; b < perfbench::Ledger::kBuckets; ++b) {
    buckets += s(static_cast<Bucket>(b));
  }
  j.member("hadoop.run_wall_s", t.run_wall_s);
  j.member("hadoop.self_s", s(Bucket::kEngineSelf));
  j.member("hadoop.start_task_s", s(Bucket::kStartTask));
  j.member("hadoop.ns_per_event",
           ratio(s(Bucket::kEngineSelf) * 1e9, static_cast<double>(t.events)));
  j.member("hadoop.events", t.events);
  j.member("hadoop.select_calls", t.select_calls);
  j.member("hadoop.attempts_killed", t.attempts_killed);
  j.member("hadoop.speculative_launched", t.speculative_launched);
  j.member("hadoop.spec_yield", ratio(static_cast<double>(t.speculative_won),
                                      static_cast<double>(t.speculative_launched)));
  j.member("hadoop.memo_served_offers", t.select_calls - per_pass(l.select_equivalent));
  j.member("sched.consults", per_pass(l.consults));
  j.member("sched.grants", per_pass(l.grants));
  j.member("sched.grant_yield",
           ratio(static_cast<double>(l.grants), static_cast<double>(l.offered_slots)));
  j.member("sched.empty_consult_share",
           ratio(static_cast<double>(l.empty_consults), static_cast<double>(l.consults)));
  j.member("sched.consult_self_s", s(Bucket::kConsult));
  j.member("sched.consult_ns_p50", percentile(l.consult_ns, 0.50));
  j.member("sched.consult_ns_p99", percentile(l.consult_ns, 0.99));
  j.member("sched.callback_s", s(Bucket::kCallback));
  j.member("sched.lost_calls", per_pass(l.lost_calls));
  j.member("core.plan_submit_s", s(Bucket::kPlanSubmit));
  j.member("core.prewarm_s", s(Bucket::kPrewarm));
  j.member("core.prewarm_useful_ratio",
           ratio(static_cast<double>(l.submitted), static_cast<double>(l.prewarmed_specs)));
  j.member("ledger.residual_s", t.run_wall_s - buckets);
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// Rounds of one untraced and one traced pass (plus, on observed workloads,
/// the traced runs with the observers detached), so every comparison is
/// made between passes measured side by side in one process: host speed
/// drifts too much between processes to compare them.
int run_traced(const Options& opt, unsigned threads) {
  const perfbench::Workload w =
      perfbench::make_workload(opt.workload, opt.seed, opt.size, threads);

  Runner untraced(opt, w);
  Runner traced(opt, w);
  Runner unobserved(opt, w);
  perfbench::Ledger ledger;
  perfbench::Ledger unobserved_ledger;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> tracing_overhead_s;
  std::vector<double> observed_over_unobserved;
  std::uint64_t bad_runs = 0;
  std::uint64_t runs = 0;
  std::uint64_t untraced_digest = 0;
  PassTally first;
  double run_wall_total = 0.0;
  const auto tally = [&](const PassTally& t, const char* what) {
    runs += t.runs;
    bad_runs += t.bad_runs;
    if (t.digest != untraced_digest) {
      std::fprintf(stderr, "woha_bench: %s changed the decisions\n", what);
      bad_runs += t.runs;
    }
  };
  repeat_for(opt.seconds, [&] {
    // Alternate which pass goes first, so warm-up and drift within a round
    // do not always favour the same side.
    const bool traced_first = traced_wall.size() % 2 == 1;
    PassTally t;
    if (traced_first) t = traced.pass(&ledger, w.observed);
    const PassTally u = untraced.pass(nullptr, w.observed);
    if (!traced_first) t = traced.pass(&ledger, w.observed);
    if (traced_wall.empty()) {
      untraced_digest = u.digest;
      first = t;
    }
    tally(u, "repeating the untraced pass");
    tally(t, "the tracing decorator");
    untraced_wall.push_back(u.wall_s);
    traced_wall.push_back(t.wall_s);
    tracing_overhead_s.push_back(t.wall_s - u.wall_s);
    run_wall_total += t.run_wall_s;
    double spent = u.wall_s + t.wall_s;
    if (w.observed) {
      const PassTally o = unobserved.pass(&unobserved_ledger, false);
      tally(o, "detaching the observers");
      observed_over_unobserved.push_back(ratio(t.run_wall_s, o.run_wall_s));
      spent += o.wall_s;
    }
    return spent;
  });
  const auto passes = static_cast<double>(traced_wall.size());
  PassTally mean = first;
  mean.run_wall_s = run_wall_total / passes;

  obs::JsonWriter j;
  j.begin_object();
  j.member("pass", "traced");
  j.member("workload", w.name);
  j.member("seed", opt.seed);
  host_member(j, opt, threads);
  j.member("runs", runs);
  j.member("bad_runs", bad_runs);
  j.member("runs_per_pass", static_cast<std::uint64_t>(w.runs.size()));
  j.member("digest", hex(untraced_digest));
  j.member("traced_digest", hex(first.digest));
  list_member(j, "untraced_pass_wall_s", untraced_wall);
  list_member(j, "pass_wall_s", traced_wall);
  j.key("layers");
  j.begin_object();
  ledger_members(j, ledger, mean, passes);
  j.member("trace.generate_s", w.generate_s);
  j.member("obs.overhead_ratio",
           observed_over_unobserved.empty() ? 0.0 : median(observed_over_unobserved));
  j.member("ledger.tracing_overhead_s", median(tracing_overhead_s));
  j.end_object();
  j.end_object();
  std::printf("result %s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(WOHA_BENCH_SANITIZED)
  std::fprintf(stderr,
               "woha_bench: refusing to time an unoptimised or sanitizer build "
               "(build type %s, flags %s)\n",
               WOHA_BENCH_BUILD_TYPE, WOHA_BENCH_CXX_FLAGS);
  return 3;
#endif
  try {
    const std::optional<Options> opt = parse(argc, argv);
    if (!opt) return usage();
    // WOHA's plan-prewarm pool: every core, but no more than four, so a
    // large host does not turn the prewarm into a different experiment.
    const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    return opt->pass == "timed" ? run_timed(*opt, threads) : run_traced(*opt, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "woha_bench: %s\n", e.what());
    return 1;
  }
}
