#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Reads two google-benchmark JSON files (a checked-in baseline such as
bench/BENCH_throughput.json, and a fresh run from bench/run_gates.py) and
fails if:

  * any benchmark present in both regressed in items_per_second by more
    than --tolerance (fractional; generous by default because the CI
    machines are noisy single-core VMs), or
  * any required speedup pair dips below its floor. Pairs come from
    repeated --speedup SLOW,FAST,FLOOR arguments (measured on the CURRENT
    run: items/sec of FAST must be >= FLOOR * items/sec of SLOW), or
  * any accuracy floor is missed. Floors come from repeated
    --accuracy NAME,FIELD,FLOOR arguments: benchmark NAME in the CURRENT
    run must carry a custom counter FIELD (google-benchmark counters
    appear as plain fields on the benchmark object) whose median is
    >= FLOOR. This is how the freq gate pins heavy-hitter recall.

Rates only compare on the same hardware: when the two files' context
blocks disagree on num_cpus or mhz_per_cpu, the vs-baseline rows are
skipped with one SKIPPED line naming both machines. The speedup and
accuracy floors are measured within the current run, so they are always
enforced.

bench/run_gates.py calls check() in-process with the floors of each gate
in bench/gates.json.

Exit status 0 on pass, 1 on any failure, 2 on malformed input.
"""

import argparse
import json
import statistics
import sys


DEFAULT_TOLERANCE = 0.30


class BadInput(Exception):
    """A malformed input is a usage error, not a perf regression: name the
    file and row instead of letting a KeyError traceback bury the cause."""


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path} is not valid JSON ({exc}) — was the benchmark "
                       f"interrupted mid-write?")


def hardware(path):
    """(num_cpus, mhz_per_cpu) from the file's google-benchmark context
    block, or None when the file does not record them."""
    context = load_json(path).get("context")
    if not isinstance(context, dict):
        return None
    cpus, mhz = context.get("num_cpus"), context.get("mhz_per_cpu")
    return None if cpus is None or mhz is None else (cpus, mhz)


def describe(hw):
    cpus, mhz = hw
    return f"{cpus} CPU{'' if cpus == 1 else 's'} @{mhz} MHz"


def load_items_per_second(path):
    """name -> items/sec; the MEDIAN when a name repeats (benchmark
    --benchmark_repetitions, or several runs merged into one file, as
    bench/run_gates.py does for the obs gate to wash out thermal drift)."""
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), list):
        raise BadInput(f"{path}: expected google-benchmark JSON with a top-level "
                       f"'benchmarks' array (got {type(data).__name__})")
    samples = {}
    for index, bench in enumerate(data["benchmarks"]):
        if not isinstance(bench, dict):
            raise BadInput(f"{path}: benchmarks[{index}] is not an object")
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if not name:
            raise BadInput(f"{path}: benchmarks[{index}] has no 'name' field")
        rate = bench.get("items_per_second")
        if rate is None:
            # Rows without a throughput counter (no SetItemsProcessed) are
            # legitimately ungated; note them rather than crashing or
            # silently pretending the row was measured.
            print(f"NO-RATE     {name}: no items_per_second in {path}; "
                  f"row not gated")
            continue
        try:
            samples.setdefault(name, []).append(float(rate))
        except (TypeError, ValueError):
            raise BadInput(f"{path}: benchmarks[{index}] ({name}): items_per_second "
                           f"{rate!r} is not a number")
    return {name: statistics.median(rates) for name, rates in samples.items()}


def load_counter(path, name, field):
    """Median of a custom counter across a named benchmark's non-aggregate
    rows, or None if the row or field is absent."""
    values = []
    for bench in load_json(path).get("benchmarks", []):
        if not isinstance(bench, dict) or bench.get("run_type") == "aggregate":
            continue
        if bench.get("name") != name:
            continue
        value = bench.get(field)
        if value is None:
            continue
        try:
            values.append(float(value))
        except (TypeError, ValueError):
            raise BadInput(f"{path}: {name}: counter {field!r} value {value!r} "
                           f"is not a number")
    return statistics.median(values) if values else None


def parse_spec(flag, spec, fields):
    """'A,B,FLOOR' -> (A, B, FLOOR as float); FLOOR is split off the right."""
    parts = spec.rsplit(",", 2)
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise BadInput(f"{flag} {spec!r}: expected {fields} "
                       f"(three comma-separated fields)")
    try:
        return parts[0], parts[1], float(parts[2])
    except ValueError:
        raise BadInput(f"{flag} {spec!r}: floor {parts[2]!r} is not a number")


def check(baseline_path, current_path, tolerance=DEFAULT_TOLERANCE,
          speedups=(), accuracies=()):
    """Prints one line per check and returns 0 on pass, 1 on any failure.
    speedups holds (SLOW, FAST, FLOOR) and accuracies (NAME, FIELD, FLOOR)
    triples; raises BadInput on a malformed file."""
    baseline = load_items_per_second(baseline_path)
    current = load_items_per_second(current_path)
    failures = []

    base_hw, run_hw = hardware(baseline_path), hardware(current_path)
    if base_hw is not None and run_hw is not None and base_hw != run_hw:
        print(f"SKIPPED (baseline: {describe(base_hw)}, run: {describe(run_hw)}): "
              f"{len(baseline)} rows of {baseline_path} not compared across hardware")
        baseline = {}

    for name in sorted(baseline):
        if name not in current:
            print(f"SKIP        {name}: not in current run")
            continue
        if baseline[name] <= 0.0:
            print(f"SKIP        {name}: baseline rate is {baseline[name]} "
                  f"(refresh the baseline with --update)")
            continue
        ratio = current[name] / baseline[name]
        ok = ratio >= 1.0 - tolerance
        print(f"{'OK' if ok else 'REGRESSION':11s} {name}: "
              f"{current[name] / 1e6:8.1f} M items/s "
              f"(baseline {baseline[name] / 1e6:8.1f}, {ratio:.2f}x)")
        if not ok:
            failures.append(
                f"{name}: {ratio:.2f}x of baseline "
                f"(threshold {1.0 - tolerance:.2f}x, "
                f"{current[name] / 1e6:.1f} vs {baseline[name] / 1e6:.1f} M items/s)")

    for slow, fast, floor in speedups:
        if slow in current and fast in current:
            speedup = current[fast] / current[slow]
            ok = speedup >= floor
            print(f"{'OK' if ok else 'TOO SLOW':11s} speedup "
                  f"({fast} / {slow}): {speedup:.2f}x (floor {floor:.2f}x)")
            if not ok:
                failures.append(
                    f"{fast} / {slow}: speedup {speedup:.2f}x below floor {floor:.2f}x")
        else:
            failures.append(f"{slow} / {fast}: speedup pair missing from current run")

    for name, field, floor in accuracies:
        value = load_counter(current_path, name, field)
        if value is None:
            failures.append(f"{name}: counter {field!r} missing from current run")
            continue
        ok = value >= floor
        print(f"{'OK' if ok else 'TOO LOW':11s} accuracy "
              f"({name} {field}): {value:.4f} (floor {floor:.4f})")
        if not ok:
            failures.append(f"{name}: {field} {value:.4f} below floor {floor:.4f}")

    if failures:
        # One self-contained block per run: every failing row with its
        # measured ratio and the threshold it missed, so a red CI log
        # needs no scrolling back through the OK rows.
        print(f"\nFAIL: {len(failures)} of "
              f"{len(baseline) + len(speedups) + len(accuracies)} "
              f"checks failed:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nPASS")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="checked-in baseline JSON")
    parser.add_argument("--current", required=True, help="fresh benchmark JSON")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional items/sec slowdown vs baseline (default 0.30)")
    parser.add_argument(
        "--speedup", action="append", default=[], metavar="SLOW,FAST,FLOOR",
        help="require items/sec(FAST) >= FLOOR * items/sec(SLOW) in the "
             "current run; repeatable")
    parser.add_argument(
        "--accuracy", action="append", default=[], metavar="NAME,FIELD,FLOOR",
        help="require the median of custom counter FIELD on benchmark NAME "
             "in the current run to be >= FLOOR; repeatable")
    args = parser.parse_args()
    try:
        accuracies = [parse_spec("--accuracy", spec, "NAME,FIELD,FLOOR")
                      for spec in args.accuracy]
        speedups = [parse_spec("--speedup", spec, "SLOW,FAST,FLOOR")
                    for spec in args.speedup]
        return check(args.baseline, args.current, args.tolerance, speedups, accuracies)
    except BadInput as exc:
        print(f"check_regression: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
