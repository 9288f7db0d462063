#!/usr/bin/env python3
"""Tests for the benchmark itself.

Run from the repository root (the first run builds the benchmark):

    python3 perfbench/tests/test_perfbench.py

They check that every metric BENCHMARK.json names is printed with its
unit, that a wrong result is counted as a failed op rather than crashing
the run, and that the layer ladder's replayed traces hold exactly the
instructions the live runs and the engine ops retired.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
COMPARE = os.path.join(ROOT, "perfbench", "compare.py")


def run(*args, check=True):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if check and proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def assert_metrics(test, result, group):
    want = {m["name"]: m["unit"] for m in bench_spec()[group]}
    got = result["metrics"]
    test.assertEqual(set(got), set(want))
    for name, unit in want.items():
        test.assertEqual(got[name]["unit"], unit, name)
        test.assertIsInstance(got[name]["value"], (int, float), name)
        test.assertGreater(got[name]["value"], 0, name)


class SmokeTest(unittest.TestCase):
    def test_every_end_to_end_metric_on_every_workload(self):
        # uarch_cells is runnable but not in BENCHMARK.json (README.md).
        names = [w["name"] for w in bench_spec()["workloads"]]
        for workload in names + ["uarch_cells"]:
            with self.subTest(workload=workload):
                result = result_of(run("--workload", workload,
                                       "--seed", "7", "--seconds", "1",
                                       "--trace", "0"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                assert_metrics(self, result, "end_to_end")


class TracedRunTest(unittest.TestCase):
    """One traced run, shared by its tests (it takes about 40 s)."""

    @classmethod
    def setUpClass(cls):
        cls.proc = run("--workload", "paper_cells", "--seed", "7",
                       "--seconds", "1", "--trace", "1")
        cls.result = result_of(cls.proc)

    def test_every_per_layer_metric_in_the_traced_run(self):
        self.assertTrue(self.result["correct"])
        self.assertEqual(self.result["failed"], 0)
        assert_metrics(self, self.result, "per_layer")

    def test_replay_sees_the_live_instruction_count(self):
        # The ladder fails the run with a "replay saw" line on any cell
        # whose replayed count differs from the live or the engine count,
        # and reports per stack how many cell ops matched.
        self.assertNotIn("replay saw", self.proc.stderr)
        summaries = {}
        for line in self.proc.stderr.splitlines():
            words = line.split()
            if len(words) > 5 and words[2] == "replay:":
                summaries[words[1]] = (int(words[3]), int(words[5]))
        self.assertEqual(set(summaries), {"paper", "uarch"})
        for stack, (matched, ops) in summaries.items():
            self.assertGreaterEqual(ops, 20, stack)
            self.assertEqual(matched, ops, stack)


class DigestMismatchTest(unittest.TestCase):
    def test_cell_op_with_wrong_digest_is_a_failed_op(self):
        result = result_of(run("--workload", "paper_cells", "--seed", "3",
                               "--seconds", "1", "--trace", "0",
                               "--inject-mismatch", "miniBUDE/gcc9/a64"))
        self.assertFalse(result["correct"])
        # One of the 20 cells is wrong: it fails once per pass.
        passes = result["attempted"] // 20
        self.assertEqual(result["attempted"] % 20, 0)
        self.assertEqual(result["failed"], passes)

    def test_daemon_reply_with_wrong_cell_is_a_failed_op(self):
        result = result_of(run("--workload", "service_mixed", "--seed", "3",
                               "--seconds", "1", "--trace", "0",
                               "--inject-mismatch", "STREAM/gcc12/rv64"))
        self.assertFalse(result["correct"])
        # Every grid reply carries that cell.
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])


class CompareTest(unittest.TestCase):
    def write_set(self, root, latency_ms, failed):
        wdir = os.path.join(root, "paper_cells")
        os.makedirs(wdir)
        for seed in range(1, 11):
            result = {"correct": failed == 0, "attempted": 100,
                      "failed": failed,
                      "metrics": {"cell_ms_p50": {"value": latency_ms + seed,
                                                  "unit": "ms"}}}
            with open(os.path.join(wdir, f"seed{seed}.json"), "w") as f:
                f.write(json.dumps(result) + "\n")

    def compare(self, head_latency_ms, head_failed):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base")
            head = os.path.join(tmp, "head")
            self.write_set(base, 100.0, 0)
            self.write_set(head, head_latency_ms, head_failed)
            proc = subprocess.run([sys.executable, COMPARE, base, head],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        verdicts = [l.split()[-1] for l in proc.stdout.splitlines()
                    if "cell_ms_p50" in l]
        return proc.returncode, verdicts

    def test_faster_correct_head_is_a_gain(self):
        self.assertEqual(self.compare(50.0, 0), (0, ["GAIN"]))

    def test_faster_head_with_failed_ops_is_invalid(self):
        self.assertEqual(self.compare(50.0, 3), (1, ["INVALID"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
