#!/usr/bin/env python3
"""Repository benchmark for the WOHA simulator.

Builds the library and the woha_bench harness from source (into
.bench_build/ under the current directory), runs one workload pass per child
process with a timeout, checks every run's scheduling decisions, prints the
metrics by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_fig8 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of an untraced timed pass.
--trace 1 alternates untraced passes with traced ones (every scheduler call
timed from outside by a forwarding decorator) and reports the per-layer
ledger. See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("paper_fig8", "scale_100k", "churn_500", "observed_10k")
# Time limit of the child process; the call ends within it after the build.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 880.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("task_starts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("deadline_miss_ratio", "ratio"),
    ("total_tardiness_h", "h"),
    ("failed_run_share", "ratio"),
)
# Printed but left out of the JSON line. The simulated metrics depend on the
# seed's inputs, not on the code's speed (paper_fig8's miss ratio spans
# 0.09-0.23 across seeds), and total tardiness is 0 on the horizon-bounded
# workloads. failed_run_share is carried by the "attempted" and "failed"
# fields.
NOT_IN_JSON = ("deadline_miss_ratio", "total_tardiness_h", "failed_run_share")

PER_LAYER = (
    ("trace.generate_s", "s"),
    ("hadoop.run_wall_s", "s"),
    ("hadoop.self_s", "s"),
    ("hadoop.start_task_s", "s"),
    ("hadoop.ns_per_event", "ns"),
    ("hadoop.events", "count"),
    ("hadoop.select_calls", "count"),
    ("hadoop.attempts_killed", "count"),
    ("hadoop.speculative_launched", "count"),
    ("hadoop.spec_yield", "ratio"),
    ("hadoop.memo_served_offers", "count"),
    ("sched.consults", "count"),
    ("sched.grants", "count"),
    ("sched.grant_yield", "ratio"),
    ("sched.empty_consult_share", "ratio"),
    ("sched.consult_self_s", "s"),
    ("sched.consult_ns_p50", "ns"),
    ("sched.consult_ns_p99", "ns"),
    ("sched.callback_s", "s"),
    ("sched.lost_calls", "count"),
    ("core.plan_submit_s", "s"),
    ("core.prewarm_s", "s"),
    ("core.prewarm_useful_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("ledger.residual_s", "s"),
    ("ledger.tracing_overhead_s", "s"),
)
LEDGER_ROWS = ("hadoop.self_s", "hadoop.start_task_s", "sched.consult_self_s",
               "sched.callback_s", "core.plan_submit_s", "core.prewarm_s")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def non_negative(kind):
    def parse(text):
        value = kind(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {text}")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=non_negative(int))
    p.add_argument("--seconds", type=non_negative(float), default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long variants for the self-test")
    p.add_argument("--inject-crash", action="store_true",
                   help="abort the timed child after its first run (self-test)")
    return p.parse_args(argv)


def log(msg):
    print(msg, flush=True)


def build(root, bench_dir, build_dir):
    """Configure (once) and build woha_bench; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under ./src: run from the repository root")
    logs = os.path.join(build_dir, "logs")
    os.makedirs(logs, exist_ok=True)
    build_log = os.path.join(logs, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "woha_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(build_log, "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step failed: {' '.join(cmd)}: {e}")
            if rc != 0:
                raise BenchError(f"build failed (see {build_log})")
    cache = read_cache(build_dir)
    why = refusal(cache)
    if why:
        raise BenchError(why)
    return os.path.join(build_dir, "woha_bench"), cache


def refusal(cache):
    """Why a configured build must not be timed, or None. The harness itself
    refuses too, from its compile-time flags."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in sorted(cache.items())
                     if k.startswith("CMAKE_CXX_FLAGS"))
    if build_type not in ("Release", "RelWithDebInfo") or "-fsanitize" in flags \
            or "-O0" in flags:
        return (f"refusing to time a {build_type or 'unoptimised'} build "
                f"with flags '{flags}'")
    return None


def read_cache(build_dir):
    out = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                out[key.split(":", 1)[0]] = value
    return out


def source_record(root, bench_dir):
    """Commit when run inside a git checkout, plus a digest of the sources
    the benchmark builds (an exported source tree carries no .git)."""
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in (os.path.join(root, "src"), bench_dir):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, "sha256:" + h.hexdigest()[:16]


class Child:
    """Outcome of one woha_bench child process."""

    def __init__(self):
        self.result = None
        self.runs_ok = 0
        self.runs_bad = 0
        self.crash = None  # why the child ended without a result

    @property
    def attempted(self):
        return self.runs_ok + self.runs_bad + (1 if self.crash else 0)

    @property
    def failed(self):
        return self.runs_bad + (1 if self.crash else 0)


def run_child(binary, args, pass_name, seconds, timeout_s, stderr_path, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--pass", pass_name, "--seconds", repr(seconds), "--size", args.size,
           *extra]
    child = Child()
    with open(stderr_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=max(1.0, timeout_s))
            stdout, rc = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired as e:
            stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
            rc = None
    for line in stdout.splitlines():
        if line.startswith("run "):
            if line.split()[-1] == "ok":
                child.runs_ok += 1
            else:
                child.runs_bad += 1
        elif line.startswith("result "):
            child.result = json.loads(line[len("result "):])
    if rc is None:
        child.crash = f"timed out after {timeout_s:.0f} s"
    elif rc < 0:
        child.crash = f"killed by signal {-rc}"
    elif rc != 0:
        child.crash = f"exit code {rc}"
    elif child.result is None:
        child.crash = "no result line"
    if child.crash:
        child.result = None
    return child


def tail_percentile(xs):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it, as
    (percentile, value), or None."""
    best = None
    for p in (75, 90, 95, 99):
        if len(xs) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(xs, n=100)[p - 1])
    return best


def end_to_end(r, attempted, failed):
    wall = statistics.median(r["pass_wall_s"])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"]),
        "sim_events_per_s": r["events"] / wall,
        "task_starts_per_s": r["tasks"] / wall,
        "peak_rss_mb": r["peak_rss_mb"],
        "deadline_miss_ratio": r["deadline_miss_ratio"],
        "total_tardiness_h": r["total_tardiness_h"],
        "failed_run_share": failed / attempted,
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    try:
        binary, cache = build(root, bench_dir, build_dir)
        commit, source = source_record(root, bench_dir)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    logs = os.path.join(build_dir, "logs")
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    pass_name = "traced" if args.trace else "timed"
    crash = ["--abort-after-runs", "1"] if args.inject_crash else []
    child = run_child(binary, args, pass_name, args.seconds, RUN_BUDGET_S,
                      os.path.join(logs, stem + ".stderr"), crash)
    r = child.result
    attempted, failed = child.attempted, child.failed
    problems = [f"{pass_name} pass: {child.crash}"] if child.crash else []
    if child.runs_bad:
        problems.append(f"{pass_name} pass: {child.runs_bad} run(s) failed their checks")
    # Runs whose decisions moved under the decorator or without the
    # observers; the child reports them in its result, not per run.
    moved = r["bad_runs"] - child.runs_bad if r else 0
    if moved:
        problems.append(f"{pass_name} pass: {moved} run(s) changed decisions "
                        "(see the stderr log)")
        failed += moved

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"size={args.size} seconds={args.seconds:g}")
    # The child reports what it was compiled with; the CMake cache stands in
    # when it crashed before reporting.
    host = (r or {}).get("host") or {
        "nproc": os.cpu_count(), "thread_cap": min(4, os.cpu_count() or 1),
        "compiler": cache.get("CMAKE_CXX_COMPILER"),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", "") + " " + cache.get(
            "CMAKE_CXX_FLAGS_" + cache.get("CMAKE_BUILD_TYPE", "").upper(), "")}
    log(f"host: nproc={host['nproc']} thread_cap={host['thread_cap']} "
        f"compiler='{host['compiler']}' build={host['build_type']} "
        f"flags='{host['cxx_flags'].strip()}' commit={commit} source={source}")
    digests = f" digest={r['digest']}" if r else ""
    if r and args.trace:
        digests += f" traced_digest={r['traced_digest']}"
    log(f"{pass_name} pass: runs ok={child.runs_ok} bad={child.runs_bad}{digests}"
        + (f" CRASHED ({child.crash}; stderr in {os.path.relpath(logs, root)})"
           if child.crash else ""))
    for msg in problems:
        log(f"FAILED: {msg}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "host": host, "commit": commit, "source": source,
              "result": r,
              "problems": problems}
    metrics = {}
    if args.trace == 0 and r:
        e2e = end_to_end(r, attempted, failed)
        walls = r["pass_wall_s"]
        run_walls = r["run_wall_s"]
        tail = tail_percentile(run_walls)
        log("end-to-end (untraced timed pass):")
        for name, unit in END_TO_END:
            note = ""
            if name == "wall_s":
                note = (f"median of {len(walls)} pass(es) of "
                        f"{r['runs_per_pass']} run(s); "
                        + (f"per-run wall p{tail[0]} {tail[1]:.6g} s "
                           f"(n={len(run_walls)} runs)" if tail else
                           f"no per-run percentile has ten of {len(run_walls)} "
                           "runs beyond it"))
            elif name == "setup_s":
                note = f"median of {len(r['setup_s'])} workload builds"
            elif name == "failed_run_share":
                note = f"{failed} of {attempted} runs"
            log(f"  {name:<22} {fmt(e2e[name]):>14} {unit:<6} {note}")
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in END_TO_END if n not in NOT_IN_JSON}
    elif args.trace == 1 and r:
        layers = r["layers"]
        log(f"per-layer ledger (per traced pass of {r['runs_per_pass']} run(s); "
            f"{len(r['pass_wall_s'])} traced passes alternating with untraced ones):")
        for name, unit in PER_LAYER:
            share = ""
            if name in LEDGER_ROWS and layers["hadoop.run_wall_s"] > 0:
                share = f"{100 * layers[name] / layers['hadoop.run_wall_s']:5.1f}% of run"
            log(f"  {name:<28} {fmt(layers[name]):>14} {unit:<6} {share}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    record["metrics"] = metrics
    with open(os.path.join(logs, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
