#!/usr/bin/env python3
"""End-to-end check that every rana_* tool rejects a malformed numeric
option value: the tool exits at once with its usage-error code and
names the option, instead of reading "abc" as 0, "4x" as 4 or "-1" as
a wrapped count. Also checks that rana_faultsim rejects its grid
options without a grid (--sweep or --compare-policies) instead of
silently running one campaign. Run through ctest (CliFlags) or
directly:

    python3 tests/test_cli_flags.py <directory holding the rana_* tools>
"""

import os
import subprocess
import sys
import unittest

TOOLS = ""

# (argv after the tool name, the option the error must name)
CASES = {
    "rana_serve": [
        (["--qps", "abc"], "--qps"),
        (["--tenants", "4x"], "--tenants"),
        (["--seed", "-1"], "--seed"),
        (["--duration", ""], "--duration"),
    ],
    "rana_faultsim": [
        (["AlexNet", "--trials", "-1"], "--trials"),
        (["AlexNet", "--seed", "1e3"], "--seed"),
        (["AlexNet", "--workers", "2.5"], "--workers"),
        (["AlexNet", "--stall", "soon"], "--stall"),
        (["AlexNet", "--sweep", "--rates", "0,abc"], "--rates"),
        (["AlexNet", "--guard-k", "-3"], "--guard-k"),
    ],
    "rana_compile": [
        (["VGG", "--jobs", "-1"], "--jobs"),
        (["VGG", "--failure-rate", "1e-5x"], "--failure-rate"),
    ],
    "rana_obs": [
        (["top", "missing-metrics.json", "-n", "abc"], "-n"),
    ],
    "rana_bench": [
        (["--list", "--trials=abc"], "--trials"),
        (["--list", "--repeat=-1"], "--repeat"),
    ],
}

# rana_faultsim options that only shape a grid run.
GRID_OPTIONS = [
    ["--rates", "0,1e-4"],
    ["--intervals", "45e-6"],
    ["--workers", "4"],
    ["--cell-timeout-ms", "1000"],
    ["--max-retries", "1"],
    ["--backoff-ms", "1"],
    ["--postmortem-dir", "postmortems"],
    ["--chaos", "kill=0"],
]

# rana_obs reserves exit 1 for "snapshots differ"; its usage errors
# exit 2. The other tools exit 1 on any bad usage.
USAGE_EXIT = {"rana_obs": 2}


class CliFlagsTest(unittest.TestCase):
    def test_malformed_numeric_values_are_usage_errors(self):
        for tool, cases in CASES.items():
            for args, option in cases:
                with self.subTest(tool=tool, args=args):
                    try:
                        result = subprocess.run(
                            [os.path.join(TOOLS, tool), *args],
                            capture_output=True,
                            text=True,
                            timeout=60,
                            check=False,
                        )
                    except subprocess.TimeoutExpired:
                        self.fail("the tool ran instead of rejecting")
                    self.assertEqual(
                        result.returncode, USAGE_EXIT.get(tool, 1),
                        result.stderr,
                    )
                    self.assertIn(f"{option} expects", result.stderr)

    def test_grid_options_need_a_grid(self):
        for option in GRID_OPTIONS:
            with self.subTest(option=option[0]):
                try:
                    result = subprocess.run(
                        [os.path.join(TOOLS, "rana_faultsim"), "AlexNet",
                         "--trials", "1", *option],
                        capture_output=True,
                        text=True,
                        timeout=60,
                        check=False,
                    )
                except subprocess.TimeoutExpired:
                    self.fail("ran a campaign instead of rejecting")
                self.assertEqual(result.returncode, 1, result.stderr)
                self.assertIn(
                    f"{option[0]} needs --sweep or --compare-policies",
                    result.stderr,
                )


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    TOOLS = sys.argv.pop(1)
    unittest.main()
