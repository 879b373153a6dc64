#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py

Each workload runs at its smallest size, untraced and traced; the
tests check the result line against BENCHMARK.json, that a seeded
fault (a corrupted modelled output in the second pass) makes the run
report a failed check, and that the benchmark refuses to run without
the library sources beside it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--smallest", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result_of(done):
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


class MetricNames(unittest.TestCase):
    def test_spec_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in SPEC[group]:
                names.append(metric["name"])
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)))


class SmallestRuns(unittest.TestCase):
    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        group = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in group])
        for metric in group:
            printed = result["metrics"][metric["name"]]
            self.assertRegex(metric["name"], NAME)
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], (int, float))
            if not trace:
                self.assertGreater(printed["value"], 0, metric["name"])
        path = os.path.join(ROOT, ".bench_results",
                            "%s-seed3-trace%d-smallest.json"
                            % (workload, trace))
        with open(path) as f:
            full = json.load(f)
        provenance = full["provenance"]
        for key in ("source_id", "compiler", "cxx_flags", "build_type",
                    "isa_avx2", "isa_avx512f", "nproc", "lanes"):
            self.assertIn(key, provenance)
        self.assertEqual(full["seed"], 3)
        self.assertTrue(full["digests"])
        if trace:
            self.assertGreaterEqual(
                result["metrics"]["obs.span_coverage"]["value"], 0.95)

    def test_compile(self):
        self.check("compile", 0)
        self.check("compile", 1)

    def test_campaign(self):
        self.check("campaign", 0)
        self.check("campaign", 1)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)


class SeededFault(unittest.TestCase):
    def test_mismatch_between_passes_fails_the_run(self):
        for workload in ("compile", "campaign", "serve"):
            done = run(workload, 0, "--inject-fault")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = result_of(done)
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)
            self.assertIn("matches pass 0", done.stdout)


class WithoutSources(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("compile", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
