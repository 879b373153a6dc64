#!/usr/bin/env python3
"""Benchmark-regression gate for the CI release and chaos jobs.

Compares machine-readable benchmark outputs against a checked-in
baseline with explicit tolerances:

    check_bench.py <baseline.json> <BENCH_*.json> [BENCH_*.json ...]

Every artifact must carry the unified rana_bench envelope: a known
"harness" name, a "mode" of correctness or perf and a non-empty
"samples" array. Artifacts are dispatched to their gate by that
"harness" field, so argument order does not matter; passing the same
harness twice or a harness without a gate fails loudly.

Every gate failure names the failing metric and prints the actual
value, the expected value and the tolerance that was applied, so a
red CI run says what regressed without re-running anything. Checking
never short-circuits: every file is examined and every failing gate
prints its line before the nonzero exit, so one red run lists every
regression at once.

Gates:

* fault_campaign - the "gate" object the fault_campaign harness
  emits for the paper's retrained operating point (failure rate
  1e-5) must hold the baseline's relative-accuracy floors; tolerance-based
  rather than exact because accuracies differ in the last few ULPs
  across compilers (FMA contraction). The campaign-throughput gate
  (baseline key "campaign_throughput") holds the trial-batched sweep
  to min_speedup x the recorded scalar cells-per-second baseline,
  and the guard-policy gate checks the permanent/hysteresis/binned
  comparison (trips absorbed, no corrupted words, same p50 floor).

* sweep_shard - the crash-tolerant sharded sweep must merge
  byte-identically with the single-process reference, both clean and
  under seeded chaos, the injected kill/stall/corruption must all
  have fired, and no cell may degrade past the baseline's
  max_degraded_cells (exact counts, no tolerance: determinism is the
  contract). The observability plane is gated too: the clean run
  must stream at least min_telemetry_frames worker telemetry frames
  and the chaos run must dump at least min_postmortem_dumps
  postmortems (one per incident - the kill and the stall timeout).

* sched_scaling - sanity gate, not a performance gate (CI runners
  have noisy, heterogeneous CPUs): every lane count must produce an
  identical schedule and a positive runtime.

* serving - the multi-tenant serving SLO gate: replays across
  data-plane pool sizes must be byte-identical
  (deterministic_replay), the worst per-tenant p99 latency must stay
  under the baseline's max_p99_ms ceiling and total virtual
  throughput must hold the min_throughput_rps floor. Latency and
  throughput are virtual-time quantities, deterministic per seed, so
  the SLO bounds are tight without being runner-sensitive.

* dataflow_search - the widened systolic dataflow axis must keep
  paying off: across the benchmark suite the six-dataflow search
  must choose a systolic dataflow for at least
  min_systolic_win_layers layers, at least one network must
  strictly improve simulated refresh energy over the best legacy
  ID/OD/WD schedule (best_refresh_energy_delta_j floor), and per
  network the widened search must never produce a worse total
  energy than the legacy axis it contains (a superset search that
  regresses means the scheduler's reduction broke).

Exit codes: 0 pass, 1 one or more gate regressions, 2 malformed
input (unreadable or unparseable JSON, a broken envelope, a repeated
or ungated harness, or bad usage). Malformed input takes precedence
over gate failures in the exit code; both are fully reported either
way.
"""

import json
import sys

# Every harness the unified rana_bench driver can emit. An artifact
# naming anything else is either stale or misrouted, and the gate
# says so instead of silently passing it through.
KNOWN_HARNESSES = (
    "table1_storage",
    "table2_memory_tech",
    "table3_energy_costs",
    "fig1_breakdown",
    "fig7_lifetime",
    "fig8_retention",
    "fig11_training",
    "fig12_layer_sizes",
    "fig15_total_energy",
    "fig16_rt_sweep",
    "fig17_vgg_layerwise",
    "fig18_capacity_sweep",
    "fig19_dadiannao",
    "ablations",
    "dataflow_search",
    "interlayer_reuse",
    "resolution_sweep",
    "sched_scaling",
    "fault_campaign",
    "campaign_batch",
    "serving",
    "sweep_shard",
    "micro",
)


def fail(message):
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    return 1


def fail_metric(metric, actual, expected, tolerance, detail=""):
    """The uniform gate-failure line: which metric regressed, the
    value it produced, the value the baseline expects and the
    tolerance that was applied before comparing."""
    suffix = f" ({detail})" if detail else ""
    return fail(
        f"metric '{metric}': actual={actual} expected={expected} "
        f"tolerance={tolerance}{suffix}"
    )


def passed(metric, actual, expected, tolerance):
    print(
        f"check_bench: metric '{metric}': actual={actual} "
        f"expected={expected} tolerance={tolerance}: ok"
    )
    return 0


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_unified_schema(report, path):
    """Validate the unified BENCH_*.json envelope the rana_bench
    driver writes: a known "harness" name, a valid "mode" and a
    well-formed "samples" array. Returns (malformed, harness)."""
    harness = report.get("harness")
    if harness is None:
        return (
            fail(
                f"{path} is missing the 'harness' field (not "
                f"written by rana_bench?); known harnesses: "
                f"{', '.join(KNOWN_HARNESSES)}"
            ),
            None,
        )
    if harness not in KNOWN_HARNESSES:
        return (
            fail(
                f"{path} names unknown harness '{harness}'; known "
                f"harnesses: {', '.join(KNOWN_HARNESSES)}"
            ),
            None,
        )
    mode = report.get("mode")
    if mode not in ("correctness", "perf"):
        return (
            fail(
                f"{path} has invalid mode '{mode}' (expect "
                "'correctness' or 'perf')"
            ),
            None,
        )
    samples = report.get("samples")
    if not isinstance(samples, list) or not samples:
        return (fail(f"{path} has no 'samples' array"), None)
    for sample in samples:
        if not all(key in sample for key in ("metric", "value", "unit")):
            return (
                fail(
                    f"{path} has a malformed perf sample: {sample}"
                ),
                None,
            )
    print(
        f"check_bench: {path}: harness '{harness}', mode '{mode}', "
        f"{len(samples)} perf sample(s)"
    )
    return (0, harness)


def check_campaign_throughput(baseline, report):
    """Gate the trial-batched campaign speed: cells/second over the
    sweep grid must hold min_speedup x the recorded scalar
    (laneBlock=1) baseline."""
    expected = baseline.get("campaign_throughput")
    if expected is None:
        return 0
    throughput = report.get("campaign_throughput")
    if throughput is None:
        return fail(
            "fault campaign JSON has no 'campaign_throughput' "
            "field"
        )
    scalar = expected["baseline_cells_per_second"]
    speedup = expected["min_speedup"]
    floor = scalar * speedup
    metric = "campaign_throughput"
    if throughput < floor:
        return fail_metric(
            metric,
            f"{throughput:.3f} cells/s",
            f">= {floor:.3f} cells/s",
            f"{speedup:.1f}x scalar baseline {scalar:.3f}",
        )
    return passed(
        metric,
        f"{throughput:.3f} cells/s",
        f">= {floor:.3f} cells/s",
        f"{speedup:.1f}x scalar baseline {scalar:.3f}",
    )


def check_fault_campaign(baseline, report):
    gate = report.get("gate")
    if gate is None:
        return fail("fault campaign JSON has no 'gate' object")
    expected = baseline["fault_campaign"]
    tolerance = expected["tolerance"]
    failures = 0
    for key in ("p50_relative_accuracy", "worst_relative_accuracy"):
        metric = f"gate.{key}"
        if key not in gate:
            failures += fail(f"gate object missing '{key}'")
            continue
        floor = expected[key] - tolerance
        if gate[key] < floor:
            failures += fail_metric(
                metric,
                f"{gate[key]:.6f}",
                f"{expected[key]:.6f}",
                f"{tolerance:.3f}",
                f"floor {floor:.6f}",
            )
            continue
        passed(metric, f"{gate[key]:.6f}", f"{expected[key]:.6f}",
               f"{tolerance:.3f}")
    rate = gate.get("failure_rate")
    if rate != expected["failure_rate"]:
        failures += fail_metric(
            "gate.failure_rate",
            f"{rate}",
            f"{expected['failure_rate']}",
            "exact",
        )
    return failures


def check_guard_policies(baseline, report):
    expected = baseline.get("guard_policies")
    if expected is None:
        return 0
    rows = {
        row.get("policy"): row
        for row in report.get("guard_policies", [])
    }
    tolerance = expected["tolerance"]
    floor = expected["p50_relative_accuracy"] - tolerance
    failures = 0
    for policy in expected["policies"]:
        row = rows.get(policy)
        if row is None:
            failures += fail(
                f"guard_policies array is missing policy "
                f"'{policy}'"
            )
            continue
        trips = row.get("trips", 0)
        if trips <= 0:
            failures += fail_metric(
                f"guard_policies[{policy}].trips",
                f"{trips}",
                "> 0",
                "exact",
                "the stall no longer provokes the guard",
            )
        violations = row.get("retention_violations", 0)
        if violations != 0:
            failures += fail_metric(
                f"guard_policies[{policy}].retention_violations",
                f"{violations}",
                "0",
                "exact",
                "corrupted-word events leaked past the guard",
            )
        p50 = row.get("p50_relative_accuracy", 0.0)
        metric = f"guard_policies[{policy}].p50_relative_accuracy"
        if p50 < floor:
            failures += fail_metric(
                metric,
                f"{p50:.6f}",
                f"{expected['p50_relative_accuracy']:.6f}",
                f"{tolerance:.3f}",
                f"floor {floor:.6f}",
            )
        else:
            passed(metric, f"{p50:.6f}",
                   f"{expected['p50_relative_accuracy']:.6f}",
                   f"{tolerance:.3f}")
    return failures


def check_sweep_shard(baseline, report):
    """Gate the crash-tolerant sharded sweep: byte-identical merges
    (clean and under chaos), chaos faults that actually fired, and a
    bounded number of degraded (in-process fallback) cells. Exact
    comparisons throughout - determinism is the contract."""
    expected = baseline.get("sweep_shard", {})
    max_degraded = expected.get("max_degraded_cells", 0)
    failures = 0

    identical = report.get("merge_identical")
    if identical is not True:
        failures += fail_metric(
            "merge_identical",
            f"{identical}",
            "true",
            "exact",
            "sharded merge diverged from the single-process sweep",
        )
    else:
        passed("merge_identical", "true", "true", "exact")

    exercised = report.get("chaos_exercised")
    if exercised is not True:
        failures += fail_metric(
            "chaos_exercised",
            f"{exercised}",
            "true",
            "exact",
            "seeded kill/stall/corruption no longer fires",
        )
    else:
        passed("chaos_exercised", "true", "true", "exact")

    chaos = report.get("chaos")
    if not isinstance(chaos, dict):
        return failures + fail(
            "sweep shard JSON has no 'chaos' object"
        )
    for counter in ("worker_crashes", "timeouts", "corrupt_frames"):
        value = chaos.get(counter, 0)
        if value < 1:
            failures += fail_metric(
                f"chaos.{counter}",
                f"{value}",
                ">= 1",
                "exact",
                "the injected fault did not fire",
            )
    degraded = chaos.get("degraded_cells", 0)
    metric = "chaos.degraded_cells"
    if degraded > max_degraded:
        failures += fail_metric(
            metric,
            f"{degraded}",
            f"<= {max_degraded}",
            "exact",
            "cells fell back to in-process execution",
        )
    else:
        passed(metric, f"{degraded}", f"<= {max_degraded}", "exact")

    # Observability-plane gates: the clean run must have streamed
    # telemetry frames (one per worker at startup, per cell and at
    # clean exit), and every chaos incident (the kill plus the stall
    # timeout) must have produced a postmortem dump.
    min_frames = expected.get("min_telemetry_frames", 8)
    clean = report.get("clean")
    if not isinstance(clean, dict):
        return failures + fail(
            "sweep shard JSON has no 'clean' object"
        )
    frames = clean.get("telemetry_frames", 0)
    metric = "clean.telemetry_frames"
    if frames < min_frames:
        failures += fail_metric(
            metric,
            f"{frames}",
            f">= {min_frames}",
            "exact",
            "worker telemetry export stopped flowing",
        )
    else:
        passed(metric, f"{frames}", f">= {min_frames}", "exact")

    min_dumps = expected.get("min_postmortem_dumps", 2)
    dumps = chaos.get("postmortem_dumps", 0)
    metric = "chaos.postmortem_dumps"
    if dumps < min_dumps:
        failures += fail_metric(
            metric,
            f"{dumps}",
            f">= {min_dumps}",
            "exact",
            "a chaos incident left no postmortem dump",
        )
    else:
        passed(metric, f"{dumps}", f">= {min_dumps}", "exact")
    return failures


def check_sched_scaling(report):
    points = report.get("points", [])
    if not points:
        return fail("sched scaling JSON has no 'points'")
    failures = 0
    for point in points:
        jobs = point.get("jobs")
        if not point.get("identical", False):
            failures += fail_metric(
                f"points[jobs={jobs}].identical",
                f"{point.get('identical')}",
                "true",
                "exact",
                "non-identical schedule across lane counts",
            )
        seconds = point.get("seconds", 0.0)
        if seconds <= 0.0:
            failures += fail_metric(
                f"points[jobs={jobs}].seconds",
                f"{seconds}",
                "> 0",
                "exact",
                "non-positive runtime",
            )
    if failures == 0:
        print(
            f"check_bench: sched scaling sane across "
            f"{len(points)} lane counts"
        )
    return failures


def check_dataflow_search(baseline, report):
    """Gate the widened dataflow search: systolic dataflows must
    still win layers, at least one network must strictly improve
    refresh energy over the best legacy schedule, and a superset
    search must never regress any network's total energy."""
    expected = baseline["dataflow_search"]
    failures = 0

    win_layers = report.get("systolic_win_layers", 0)
    min_wins = expected["min_systolic_win_layers"]
    if win_layers < min_wins:
        failures += fail_metric(
            "systolic_win_layers",
            f"{win_layers}",
            f">= {min_wins}",
            "exact",
            "the widened search stopped choosing systolic dataflows",
        )
    else:
        passed("systolic_win_layers", f"{win_layers}",
               f">= {min_wins}", "exact")

    delta = report.get("best_refresh_energy_delta_j")
    floor = expected["min_refresh_energy_delta_j"]
    if delta is None or delta <= floor:
        failures += fail_metric(
            "best_refresh_energy_delta_j",
            f"{delta}",
            f"> {floor}",
            "exact",
            "no network improved refresh energy with a systolic win",
        )
    else:
        passed(
            "best_refresh_energy_delta_j",
            f"{delta:.6e}",
            f"> {floor}",
            "exact",
        )

    for entry in report.get("networks", []):
        name = entry.get("network", "?")
        legacy = entry.get("legacy_total_energy_j")
        widened = entry.get("widened_total_energy_j")
        metric = f"{name}_widened_total_energy_j"
        if legacy is None or widened is None or widened > legacy:
            failures += fail_metric(
                metric,
                f"{widened}",
                f"<= {legacy}",
                "exact",
                "a superset search produced a worse schedule",
            )
        else:
            passed(metric, f"{widened:.6e}", f"<= {legacy:.6e}",
                   "exact")
    return failures


def check_serving(baseline, report):
    """Gate the multi-tenant serving SLOs: deterministic replay,
    a worst-tenant p99 latency ceiling and a total-throughput
    floor. Latencies are virtual-time, so exact bounds hold on any
    runner."""
    expected = baseline["serving"]
    failures = 0

    deterministic = report.get("deterministic_replay")
    if deterministic is not True:
        failures += fail_metric(
            "deterministic_replay",
            f"{deterministic}",
            "true",
            "exact",
            "replays diverged across data-plane pool sizes",
        )
    else:
        passed("deterministic_replay", "true", "true", "exact")

    p99 = report.get("worst_p99_ms")
    ceiling = expected["max_p99_ms"]
    if p99 is None or p99 > ceiling:
        failures += fail_metric(
            "worst_p99_ms",
            f"{p99}",
            f"<= {ceiling}",
            "exact",
            "worst per-tenant p99 latency broke the SLO ceiling",
        )
    else:
        passed("worst_p99_ms", f"{p99:.3f}", f"<= {ceiling}",
               "exact")

    rps = report.get("throughput_rps")
    floor = expected["min_throughput_rps"]
    if rps is None or rps < floor:
        failures += fail_metric(
            "throughput_rps",
            f"{rps}",
            f">= {floor}",
            "exact",
            "total serving throughput fell below the SLO floor",
        )
    else:
        passed("throughput_rps", f"{rps:.3f}", f">= {floor}",
               "exact")

    completed = report.get("total_completed", 0)
    min_completed = expected.get("min_completed", 1)
    if completed < min_completed:
        failures += fail_metric(
            "total_completed",
            f"{completed}",
            f">= {min_completed}",
            "exact",
            "the workload served almost nothing",
        )
    else:
        passed("total_completed", f"{completed}",
               f">= {min_completed}", "exact")
    return failures


# The harnesses this gate knows how to check, keyed by the artifact's
# own "harness" field (so argument order never matters). Each gate
# returns its failure count; composed gates all run so every failing
# metric prints its line.
GATES = {
    "fault_campaign": lambda baseline, report: (
        check_fault_campaign(baseline, report)
        + check_campaign_throughput(baseline, report)
        + check_guard_policies(baseline, report)
    ),
    "sweep_shard": check_sweep_shard,
    "sched_scaling": lambda baseline, report: check_sched_scaling(
        report
    ),
    "serving": check_serving,
    "dataflow_search": check_dataflow_search,
}


def main(argv):
    if len(argv) < 3:
        print(
            "usage: check_bench.py <baseline.json> <BENCH_*.json> "
            "[BENCH_*.json ...]",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load(argv[1])
    except (OSError, json.JSONDecodeError) as error:
        fail(str(error))
        return 2
    malformed = 0
    gate_failures = 0
    seen = set()
    for path in argv[2:]:
        try:
            report = load(path)
        except (OSError, json.JSONDecodeError) as error:
            malformed += fail(str(error))
            continue
        bad, harness = check_unified_schema(report, path)
        if bad:
            malformed += bad
            continue
        if harness in seen:
            malformed += fail(f"{path} repeats harness '{harness}'")
            continue
        seen.add(harness)
        gate = GATES.get(harness)
        if gate is None:
            malformed += fail(
                f"{path} holds harness '{harness}', which has no "
                f"regression gate; gated harnesses: "
                f"{', '.join(sorted(GATES))}"
            )
            continue
        gate_failures += gate(baseline, report)
    if malformed:
        return 2
    if gate_failures:
        return 1
    print("check_bench: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
