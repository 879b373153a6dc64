#!/usr/bin/env python3
"""Benchmark-regression gate for the CI release and chaos jobs.

    check_bench.py <baseline.json> <BENCH_*.json> [BENCH_*.json ...]

All gates live in the baseline's "gates": for each gated harness,
entries "<path>": {"<op>": <bound>} such as "worst_p99_ms": {"max":
500}. A path points into BENCH_<harness>.json: a.b (member b of a),
a[*].b (b of every element of the non-empty array a) or
a[key=value].b (b of each element of a whose member key is the
string value). Ops: eq (numbers, booleans or strings), min (actual
>= bound - tolerance, the one op that takes a "tolerance"), max
(actual <= bound) and gt (actual > bound). A bound {"field":
"<name>"} is read from member <name> beside the metric. A missing or
non-comparable metric, or a selector matching nothing, fails.

Each artifact needs the rana_bench envelope: a gated "harness" (at
most once; argument order does not matter), a "mode" of correctness
or perf and non-empty "samples". Each metric prints one line,
"metric '<path>': actual=<a> expected=<op> <b> tolerance=<t>",
ending ": ok" or prefixed "FAIL:"; nothing short-circuits, so one
red run lists every regression.

Exit codes: 0 pass, 1 gate failures, 2 malformed input (bad usage, a
baseline breaking the grammar above - checked before any artifact is
read - an unreadable artifact, a broken envelope, a repeated or
ungated harness). Malformed input wins over gate failures.
"""

import json
import re
import sys

# op -> (symbol printed before the bound, test of actual vs. bound)
OPS = {
    "eq": ("", lambda actual, bound: actual == bound),
    "min": (">= ", lambda actual, bound: actual >= bound),
    "max": ("<= ", lambda actual, bound: actual <= bound),
    "gt": ("> ", lambda actual, bound: actual > bound),
}
STEP = re.compile(r"([A-Za-z_]\w*)(?:\[(\*|([A-Za-z_]\w*)=([^\]]+))\])?")
MISSING = object()


def fail(message):
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    return 1


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def comparable(actual, bound, op):
    if is_number(actual) and is_number(bound):
        return True
    same_type = type(actual) is type(bound)
    return op == "eq" and same_type and isinstance(actual, (bool, str))


def parse_path(path):
    """The path as (text, name, selector) steps - selector None, "*"
    or (key, value) - or None when it breaks the grammar."""
    steps = []
    for text in path.split("."):
        match = STEP.fullmatch(text)
        if match is None:
            return None
        name, selector, key, value = match.groups()
        steps.append((text, name, (key, value) if key else selector))
    return steps if steps[-1][2] is None else None


def entry_error(path, entry):
    """Why one gate entry breaks the grammar, or None."""
    if parse_path(path) is None:
        return "has an unparsable path"
    ops = [op for op in OPS if isinstance(entry, dict) and op in entry]
    if len(ops) != 1:
        return f"needs an object with exactly one of {', '.join(OPS)}"
    op = ops[0]
    extra = set(entry) - {op} - ({"tolerance"} if op == "min" else set())
    tolerance = entry.get("tolerance", 0)
    bound = entry[op]
    if extra:
        return f"has unexpected key(s) {', '.join(sorted(extra))}"
    if not is_number(tolerance) or tolerance < 0:
        return "has a tolerance that is not a non-negative number"
    if isinstance(bound, dict):
        if list(bound) != ["field"] or not isinstance(bound["field"], str):
            return 'has a field bound other than {"field": "<name>"}'
    elif not comparable(bound, bound, op):
        return f"has a bound {json.dumps(bound)} that {op} cannot compare"
    return None


def baseline_error(baseline):
    """Why the baseline breaks the gate grammar, or None."""
    if not isinstance(baseline, dict) or set(baseline) - {"comment", "gates"}:
        return "expect an object holding only 'comment' and 'gates'"
    gates = baseline.get("gates")
    if not isinstance(gates, dict) or not gates:
        return "'gates' is missing or empty"
    for harness, entries in gates.items():
        if not isinstance(entries, dict) or not entries:
            return f"gate '{harness}' has no entries"
        for metric, entry in entries.items():
            problem = entry_error(metric, entry)
            if problem:
                return f"gate '{harness}' entry '{metric}' {problem}"
    return None


def envelope_error(report, gates, seen):
    """Why an artifact's envelope is broken, or None."""
    harness = report.get("harness") if isinstance(report, dict) else None
    if not isinstance(harness, str) or harness not in gates:
        return (
            f"holds harness '{harness}', which has no regression gate; "
            f"gated harnesses: {', '.join(sorted(gates))}"
        )
    if harness in seen:
        return f"repeats harness '{harness}'"
    if report.get("mode") not in ("correctness", "perf"):
        return f"has invalid mode '{report.get('mode')}'"
    samples = report.get("samples")
    if not isinstance(samples, list) or not samples:
        return "has no 'samples' array"
    for sample in samples:
        if not isinstance(sample, dict) or not all(
            key in sample for key in ("metric", "value", "unit")
        ):
            return f"has a malformed perf sample: {sample}"
    return None


def resolve(node, steps, prefix=""):
    """Yield (path, holder, value) for each metric the steps select
    below node. holder is the object holding the metric; value is
    MISSING, under the declared path, when nothing was found."""
    text, name, selector = steps[0]
    base = f"{prefix}.{name}" if prefix else name
    here = base + text[len(name):]
    child = node.get(name, MISSING) if isinstance(node, dict) else MISSING
    if len(steps) == 1:
        yield here, node, child
        return
    if selector is None:
        yield from resolve(child, steps[1:], here)
        return
    picked = [
        (f"{base}[{index}]" if selector == "*" else here, element)
        for index, element in enumerate(
            child if isinstance(child, list) else []
        )
        if selector == "*"
        or isinstance(element, dict)
        and element.get(selector[0]) == selector[1]
    ]
    if not picked:
        rest = "".join(f".{step[0]}" for step in steps[1:])
        yield here + rest, None, MISSING
    for label, element in picked:
        yield from resolve(element, steps[1:], label)


def show(value):
    return "missing" if value is MISSING else json.dumps(value)


def check_metric(path, holder, actual, entry):
    """Print the metric's uniform line; returns 1 when it fails."""
    op = next(key for key in entry if key in OPS)
    symbol, holds = OPS[op]
    bound = entry[op]
    tolerance = entry.get("tolerance")
    detail = "not comparable"
    if isinstance(bound, dict):
        detail = f"bound field '{bound['field']}' missing or not comparable"
        holder = holder if isinstance(holder, dict) else {}
        bound = holder.get(bound["field"], MISSING)
    line = (
        f"metric '{path}': actual={show(actual)} "
        f"expected={symbol}{show(bound)} "
        f"tolerance={'exact' if tolerance is None else tolerance}"
    )
    if actual is MISSING:
        return fail(f"{line} (metric not found)")
    if not comparable(actual, bound, op):
        return fail(f"{line} ({detail})")
    if not holds(actual, bound if tolerance is None else bound - tolerance):
        return fail(line)
    print(f"check_bench: {line}: ok")
    return 0


def main(argv):
    if len(argv) < 3:
        print("usage: check_bench.py <baseline.json> <BENCH_*.json> "
              "[BENCH_*.json ...]", file=sys.stderr)
        return 2
    try:
        baseline = load(argv[1])
        problem = baseline_error(baseline)
    except (OSError, ValueError) as error:
        problem = f"is unreadable: {error}"
    if problem:
        fail(f"{argv[1]} {problem}")
        return 2
    gates = baseline["gates"]
    malformed = failures = 0
    seen = set()
    for path in argv[2:]:
        try:
            report = load(path)
            problem = envelope_error(report, gates, seen)
        except (OSError, ValueError) as error:
            problem = f"is unreadable: {error}"
        if problem:
            malformed += fail(f"{path} {problem}")
            continue
        harness = report["harness"]
        seen.add(harness)
        print(
            f"check_bench: {path}: harness '{harness}', mode "
            f"'{report['mode']}', {len(report['samples'])} perf sample(s)"
        )
        for metric, entry in gates[harness].items():
            for found in resolve(report, parse_path(metric)):
                failures += check_metric(*found, entry)
    if malformed:
        return 2
    if failures:
        return 1
    print("check_bench: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
