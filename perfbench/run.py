#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile|campaign|serve \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/cpp, its own CMake package) is built from
source into .bench_build/perfbench on first use; later runs rebuild
only what changed. The run prints every metric by name with its unit,
and its last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full result, with
provenance (source hash, git commit when there is one, compiler and
flags, build type, ISA, nproc, lanes, seed), the modelled-output
digests, the self-time table and the per-layer tables, is written to
.bench_results/<workload>-seed<N>-trace<T>.json.

Exit codes: 0 the run completed and printed its result; 1 the build
or the run failed (no result printed); 2 bad usage.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("compile", "campaign", "serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the program's own passes take
# --seconds plus set-up and checks, well inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not beside perfbench/; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel",
                  str(os.cpu_count() or 1)])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no program at " + binary)
    return binary


def source_id():
    """SHA-256 over the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or "" when it is not a git checkout."""
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        return ""
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # For the benchmark's own tests (perfbench/tests).
    parser.add_argument("--smallest", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def main(argv):
    args = parse_args(argv)
    binary = build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    result_path = os.path.join(
        RESULTS_DIR, "%s-seed%d-trace%s%s.json" % (
            args.workload, args.seed, args.trace,
            "-smallest" if args.smallest else ""))
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--result", result_path,
               "--source-id", source_id(), "--git-commit", git_commit()]
    if args.smallest:
        command.append("--smallest")
    if args.inject_fault:
        command.append("--inject-fault")
    env = dict(os.environ, RANA_LOG_LEVEL="warn")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the %s run did not finish within %d s"
             % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("the program exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        fail("the program printed no result line")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
