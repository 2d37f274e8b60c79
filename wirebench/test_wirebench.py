#!/usr/bin/env python3
"""The benchmark's own tests: a short configuration of every workload.

    python3 wirebench/test_wirebench.py

For each workload they check that an untraced and a traced run print every
metric BENCHMARK.json names, with its unit; that a deliberately wrong
expectation fails the run; that a generator pushed past what it can send
marks the run invalid; and that every traced span parents back to a
request root, so the stage table closes. A last test checks that the
benchmark fails, without printing a result, when the library sources are
missing. Takes about a minute and a half on four cores.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SHORT = ["--seconds", "2"]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = ["python3", os.path.join(cwd, "wirebench", "run.py"), "--workload", workload,
           "--seed", "7", "--trace", str(trace)] + SHORT + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def meta(proc):
    prefix = "wirebench-meta: "
    line = next(l for l in proc.stdout.splitlines() if l.startswith(prefix))
    return json.loads(line[len(prefix):])


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(res["attempted"], 1)
        for m in declared:
            self.assertIn(m["name"], res["metrics"])
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        self.assertEqual(len(res["metrics"]), len(declared))

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.check_metrics(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_prints_every_layer_metric_and_a_closing_table(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result(proc)
                self.check_metrics(res, SPEC["per_layer"])
                # Every span parents back to a request root and no request
                # lost its trace.
                self.assertEqual(res["metrics"]["obs.spans_lost"]["value"], 0)
                self.assertGreater(res["metrics"]["obs.spans_per_req"]["value"], 0)
                self.assertIn("  unattributed", proc.stdout)
                self.assertIn("closes: yes", proc.stdout)

    def test_wrong_expectation_fails_the_run(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0, "--inject-mismatch")
                self.assertNotEqual(proc.returncode, 0)
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_lagging_generator_invalidates_the_run(self):
        # Four times the server's capacity: requests pile up behind the
        # connections, so their first bytes go out later and later than due
        # and the schedule is no longer offered in any time window.
        proc = run("gray32-tenants", 0, "--offered-rps", "200000", "--seconds", "1")
        self.assertEqual(proc.returncode, 2, proc.stderr[-2000:])
        m = meta(proc)
        self.assertFalse(m["valid"])
        self.assertGreater(m["late_p90_ms"], m["late_limit_ms"])
        self.assertTrue(result(proc)["correct"])
        self.assertIn("RUN INVALID", proc.stderr)

    def test_valid_runs_say_so(self):
        proc = run("rgb224-decode", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(meta(proc)["valid"])


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_library(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "wirebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
