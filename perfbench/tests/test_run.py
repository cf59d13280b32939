"""Self-test of the repository benchmark.

Runs the seconds-long tiny variant of every workload through
perfbench/run.py and checks the contract: every metric prints by name and
unit, the JSON line carries exactly the metrics BENCHMARK.json declares, the
traced pass reproduces the untraced decision digest, the ledger rows sum to
the Engine::run() wall, and a crashing child counts as a failed run.

Run from the repository root (the first run builds the harness):

    python3 -m unittest discover -s perfbench/tests -v
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BUILD_DIR = os.path.join(ROOT, ".bench_build")

spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

# Decision digests of the tiny variants at seed 1. A change that moves one
# changed a scheduling decision (or what the digest covers); see
# perfbench/README.md before updating a value.
PINNED_TINY_DIGESTS = {
    "paper_fig8": "fd713c82346d948c",
    "scale_100k": "354ed0677e95dfc0",
    "churn_500": "bbfea5aca5d0dd1c",
    "observed_10k": "1a29920e1ec4560e",
}


def bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def digests(stdout):
    return dict(re.findall(r"\b(digest|traced_digest)=(\w+)", stdout))


class RefusalTest(unittest.TestCase):
    def test_refuses_unoptimised_and_sanitizer_builds(self):
        self.assertIsNotNone(run.refusal({"CMAKE_BUILD_TYPE": "Debug"}))
        self.assertIsNotNone(run.refusal({"CMAKE_BUILD_TYPE": ""}))
        self.assertIsNotNone(run.refusal({
            "CMAKE_BUILD_TYPE": "RelWithDebInfo",
            "CMAKE_CXX_FLAGS": "-fsanitize=address"}))
        self.assertIsNone(run.refusal({"CMAKE_BUILD_TYPE": "Release",
                                       "CMAKE_CXX_FLAGS": ""}))


class WorkloadTest(unittest.TestCase):
    def test_end_to_end_metrics(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = bench(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(declared))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], declared[name])
                    self.assertGreater(m["value"], 0, name)
                for name, unit in run.END_TO_END:
                    self.assertRegex(proc.stdout, rf"(?m)^  {re.escape(name)} +\S+ "
                                                  rf"{re.escape(unit)}\b")
                self.assertEqual(digests(proc.stdout)["digest"],
                                 PINNED_TINY_DIGESTS[workload])

    def test_traced_pass_keeps_decisions_and_conserves_wall(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(declared))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], declared[name])
                    self.assertRegex(proc.stdout, rf"(?m)^  {re.escape(name)} ")
                d = digests(proc.stdout)
                self.assertEqual(d["traced_digest"], d["digest"])
                self.assertEqual(d["digest"], PINNED_TINY_DIGESTS[workload])
                layers = {k: v["value"] for k, v in result["metrics"].items()}
                rows = sum(layers[r] for r in run.LEDGER_ROWS)
                self.assertAlmostEqual(rows, layers["hadoop.run_wall_s"],
                                       delta=0.01 * layers["hadoop.run_wall_s"])
                if workload == "observed_10k":
                    self.assertGreater(layers["obs.overhead_ratio"], 0)


class FailureTest(unittest.TestCase):
    def test_crashing_child_counts_as_failed_run(self):
        proc, result = bench("paper_fig8", 0, "--inject-crash")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("CRASHED", proc.stdout)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreaterEqual(result["attempted"], result["failed"])
        self.assertEqual(result["metrics"], {})

    def test_refuses_to_run_without_the_sources(self):
        stripped = os.path.join(BUILD_DIR, "selftest-stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_fig8",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=170)
        shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
