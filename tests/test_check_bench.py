#!/usr/bin/env python3
"""Tests for tools/check_bench.py against tools/bench_baseline.json.

Each test builds minimal synthetic BENCH_<harness>.json artifacts -
the rana_bench envelope plus the fields the baseline gates - and runs
the real gate script on them, so every entry of the checked-in
baseline is exercised: it passes on a good artifact and at its exact
bound, and it fails, naming its path, when broken. Run directly or
through ctest (CheckBench):

    python3 tests/test_check_bench.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "check_bench.py")
BASELINE = os.path.join(ROOT, "tools", "bench_baseline.json")

with open(BASELINE, encoding="utf-8") as handle:
    GATES = json.load(handle)["gates"]

# One comfortably passing body per gated harness (values from a
# reference run, rounded).
GOOD = {
    "fault_campaign": {
        "gate": {
            "failure_rate": 1e-05,
            "p50_relative_accuracy": 1.0,
            "worst_relative_accuracy": 0.99,
        },
        "campaign_throughput": 2.1,
        "guard_policies": [
            {
                "policy": policy,
                "trips": 9,
                "retention_violations": 0,
                "p50_relative_accuracy": 1.0,
            }
            for policy in ("permanent", "hysteresis", "binned")
        ],
    },
    "sweep_shard": {
        "merge_identical": True,
        "chaos_exercised": True,
        "clean": {"telemetry_frames": 12},
        "chaos": {
            "worker_crashes": 2,
            "timeouts": 1,
            "corrupt_frames": 1,
            "degraded_cells": 0,
            "postmortem_dumps": 2,
        },
    },
    "sched_scaling": {
        "points": [
            {"jobs": jobs, "identical": True, "seconds": 0.03}
            for jobs in (1, 2, 4)
        ],
    },
    "serving": {
        "deterministic_replay": True,
        "worst_p99_ms": 361.0,
        "throughput_rps": 24.5,
        "total_completed": 49,
    },
    "dataflow_search": {
        "systolic_win_layers": 81,
        "best_refresh_energy_delta_j": 5.5e-4,
        "networks": [
            {
                "network": network,
                "legacy_total_energy_j": 0.11,
                "widened_total_energy_j": 0.1,
            }
            for network in ("AlexNet", "VGG")
        ],
    },
}


def artifact(harness):
    report = copy.deepcopy(GOOD[harness])
    report.update(
        harness=harness,
        mode="perf",
        samples=[{"metric": "wall", "value": 1.0, "unit": "s"}],
    )
    return report


def locate(report, path):
    """(object, key) of the metric a gate path names; under [*] the
    first element, so breaking it breaks the gate."""
    *steps, leaf = path.split(".")
    node = report
    for step in steps:
        name, _, selector = step.partition("[")
        node = node[name]
        if selector == "*]":
            node = node[0]
        elif selector:
            key, value = selector[:-1].split("=")
            node = next(item for item in node if item[key] == value)
    return node, leaf


def op_of(entry):
    return next(key for key in ("eq", "min", "max", "gt") if key in entry)


def bound_of(entry, holder):
    bound = entry[op_of(entry)]
    return holder[bound["field"]] if isinstance(bound, dict) else bound


def failing_value(entry, holder):
    op, bound = op_of(entry), bound_of(entry, holder)
    if op == "eq":
        return (not bound) if isinstance(bound, bool) else bound + 1
    if op == "min":
        return bound - entry.get("tolerance", 0) - 1
    if op == "max":
        return bound + 1
    return bound  # gt is strict: the bound itself fails


def entries():
    for harness, gates in GATES.items():
        for path, entry in gates.items():
            yield harness, path, entry


class CheckBenchTest(unittest.TestCase):
    def run_gate(self, *reports, baseline=None):
        """Run the gate on the reports (dicts, or raw text) against the
        checked-in baseline or `baseline`; asserts no traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = BASELINE
            if baseline is not None:
                baseline_path = os.path.join(tmp, "baseline.json")
                with open(baseline_path, "w", encoding="utf-8") as out:
                    json.dump(baseline, out)
            paths = []
            for index, report in enumerate(reports):
                paths.append(os.path.join(tmp, f"BENCH_{index}.json"))
                with open(paths[-1], "w", encoding="utf-8") as out:
                    if isinstance(report, str):
                        out.write(report)
                    else:
                        json.dump(report, out)
            result = subprocess.run(
                [sys.executable, SCRIPT, baseline_path, *paths],
                capture_output=True,
                text=True,
                check=False,
            )
        self.assertNotIn("Traceback", result.stderr)
        return result

    def assert_exit(self, result, code):
        self.assertEqual(
            result.returncode, code, result.stdout + result.stderr
        )

    def test_good_artifacts_pass(self):
        for harness in GATES:
            with self.subTest(harness=harness):
                result = self.run_gate(artifact(harness))
                self.assert_exit(result, 0)
                self.assertIn("check_bench: PASS", result.stdout)
        everything = [artifact(harness) for harness in reversed(GOOD)]
        self.assert_exit(self.run_gate(*everything), 0)

    def test_every_gate_entry_fails_when_broken(self):
        for harness, path, entry in entries():
            with self.subTest(harness=harness, path=path):
                report = artifact(harness)
                holder, key = locate(report, path)
                holder[key] = failing_value(entry, holder)
                result = self.run_gate(report)
                self.assert_exit(result, 1)
                named = path.replace("[*]", "[0]")
                self.assertIn(f"FAIL: metric '{named}'", result.stderr)

    def test_every_bound_hit_exactly_passes(self):
        for harness, path, entry in entries():
            if op_of(entry) == "gt":
                continue
            with self.subTest(harness=harness, path=path):
                report = artifact(harness)
                holder, key = locate(report, path)
                bound = bound_of(entry, holder)
                if "tolerance" in entry:
                    bound -= entry["tolerance"]
                holder[key] = bound
                self.assert_exit(self.run_gate(report), 0)

    def test_broken_envelopes_are_malformed(self):
        bad_mode = artifact("serving")
        bad_mode["mode"] = "fast"
        no_samples = artifact("serving")
        no_samples["samples"] = []
        ungated = artifact("serving")
        ungated["harness"] = "micro"
        unknown = artifact("serving")
        unknown["harness"] = "no_such_harness"
        cases = {
            "bad mode": [bad_mode],
            "empty samples": [no_samples],
            "repeated harness": [artifact("serving"), artifact("serving")],
            "ungated harness": [ungated],
            "unknown harness": [unknown],
            "not an object": ["[1, 2]"],
            "not JSON": ["{"],
        }
        for name, reports in cases.items():
            with self.subTest(case=name):
                self.assert_exit(self.run_gate(*reports), 2)

    def test_malformed_input_wins_over_gate_failures(self):
        broken = artifact("serving")
        broken["worst_p99_ms"] = 900.0
        bad_mode = artifact("sweep_shard")
        bad_mode["mode"] = "fast"
        result = self.run_gate(broken, bad_mode)
        self.assert_exit(result, 2)
        self.assertIn("FAIL: metric 'worst_p99_ms'", result.stderr)

    def test_malformed_baseline_exits_2_before_reading_artifacts(self):
        def with_entry(entry, path="worst_p99_ms"):
            baseline = {"gates": copy.deepcopy(GATES)}
            baseline["gates"]["serving"][path] = entry
            return baseline

        cases = {
            "unknown op": with_entry({"below": 500}),
            "two ops": with_entry({"min": 1, "max": 500}),
            "extra key": with_entry({"max": 500, "why": "SLO"}),
            "tolerance beside max": with_entry({"max": 500, "tolerance": 1}),
            "unparsable path": with_entry({"max": 1}, path="a[*"),
            "path ends in a selector": with_entry({"max": 1}, path="a[*]"),
            "non-numeric bound": with_entry({"max": "500"}),
            "bad field bound": with_entry({"max": {"field": 3}}),
            "empty section": {"gates": {"serving": {}}},
            "no gates": {"comment": "thresholds elsewhere"},
            "unknown top-level key": {"gates": GATES, "serving": {}},
        }
        for name, baseline in cases.items():
            with self.subTest(case=name):
                result = self.run_gate(
                    "not read: malformed baselines stop first",
                    baseline=baseline,
                )
                self.assert_exit(result, 2)
                self.assertEqual(result.stderr.count("check_bench: FAIL"), 1)
                self.assertIn("baseline.json", result.stderr)
                self.assertNotIn("BENCH_0.json", result.stderr)

    def test_baseline_without_a_section_leaves_that_harness_ungated(self):
        gates = {k: v for k, v in GATES.items() if k != "serving"}
        result = self.run_gate(artifact("serving"), baseline={"gates": gates})
        self.assert_exit(result, 2)
        self.assertIn("has no regression gate", result.stderr)

    def test_missing_metric_fails(self):
        report = artifact("sweep_shard")
        del report["chaos"]["degraded_cells"]
        result = self.run_gate(report)
        self.assert_exit(result, 1)
        self.assertIn(
            "metric 'chaos.degraded_cells': actual=missing", result.stderr
        )

    def test_missing_field_bound_fails(self):
        report = artifact("dataflow_search")
        del report["networks"][1]["legacy_total_energy_j"]
        result = self.run_gate(report)
        self.assert_exit(result, 1)
        self.assertIn(
            "metric 'networks[1].widened_total_energy_j'", result.stderr
        )

    def test_selector_matching_nothing_fails(self):
        for harness, path, mutate in (
            ("dataflow_search", "networks[*]",
             lambda r: r["networks"].clear()),
            ("sched_scaling", "points[*]", lambda r: r.pop("points")),
            ("fault_campaign", "guard_policies[policy=binned]",
             lambda r: r["guard_policies"].pop()),
        ):
            with self.subTest(path=path):
                report = artifact(harness)
                mutate(report)
                result = self.run_gate(report)
                self.assert_exit(result, 1)
                self.assertIn(f"FAIL: metric '{path}.", result.stderr)

    def test_mistyped_metric_fails_without_traceback(self):
        report = artifact("serving")
        report["worst_p99_ms"] = "fast"
        result = self.run_gate(report)
        self.assert_exit(result, 1)
        self.assertIn(
            "metric 'worst_p99_ms': actual=\"fast\"", result.stderr
        )


if __name__ == "__main__":
    unittest.main()
