#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Reads two google-benchmark JSON files (a checked-in baseline such as
bench/BENCH_throughput.json or bench/BENCH_merge.json, and a fresh run from
bench/run_bench.sh / bench/run_merge_bench.sh) and fails if:

  * any benchmark present in both regressed in items_per_second by more
    than --tolerance (fractional; generous by default because the CI
    machines are noisy single-core VMs), or
  * any required speedup pair dips below its floor. Pairs come from
    repeated --speedup SLOW,FAST,FLOOR arguments (measured on the CURRENT
    run: items/sec of FAST must be >= FLOOR * items/sec of SLOW); with no
    --speedup given, the legacy --scalar/--batch/--speedup-floor trio
    forms the single pair (the ingestion gate's >= 2x batch floor), or
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

Exit status 0 on pass, 1 on any failure.
"""

import argparse
import json
import statistics
import sys


def die(message):
    """A malformed input is a usage error, not a perf regression: name the
    file and row instead of letting a KeyError traceback bury the cause."""
    print(f"check_regression: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        die(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        die(f"{path} is not valid JSON ({exc}) — was the benchmark "
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
    bench/run_obs_bench.sh does to wash out thermal drift)."""
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), list):
        die(f"{path}: expected google-benchmark JSON with a top-level "
            f"'benchmarks' array (got {type(data).__name__})")
    samples = {}
    for index, bench in enumerate(data["benchmarks"]):
        if not isinstance(bench, dict):
            die(f"{path}: benchmarks[{index}] is not an object")
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if not name:
            die(f"{path}: benchmarks[{index}] has no 'name' field")
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
            die(f"{path}: benchmarks[{index}] ({name}): items_per_second "
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
            die(f"{path}: {name}: counter {field!r} value {value!r} "
                f"is not a number")
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="checked-in baseline JSON")
    parser.add_argument("--current", required=True, help="fresh benchmark JSON")
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional items/sec slowdown vs baseline (default 0.30)")
    parser.add_argument(
        "--speedup-floor", type=float, default=2.0,
        help="required batch/scalar speedup in the saturated regime")
    parser.add_argument(
        "--scalar", default="BM_IngestScalar/1024/1",
        help="scalar side of the speedup pair")
    parser.add_argument(
        "--batch", default="BM_IngestBatch/1024/1",
        help="batched side of the speedup pair")
    parser.add_argument(
        "--speedup", action="append", metavar="SLOW,FAST,FLOOR",
        help="require items/sec(FAST) >= FLOOR * items/sec(SLOW) in the "
             "current run; repeatable, overrides --scalar/--batch")
    parser.add_argument(
        "--accuracy", action="append", metavar="NAME,FIELD,FLOOR",
        help="require the median of custom counter FIELD on benchmark NAME "
             "in the current run to be >= FLOOR; repeatable")
    args = parser.parse_args()

    accuracy_specs = []
    for spec in args.accuracy or []:
        parts = spec.rsplit(",", 2)
        if len(parts) != 3 or not parts[0] or not parts[1]:
            die(f"--accuracy {spec!r}: expected NAME,FIELD,FLOOR "
                f"(three comma-separated fields)")
        name, field, floor_text = parts
        try:
            floor = float(floor_text)
        except ValueError:
            die(f"--accuracy {spec!r}: floor {floor_text!r} is not a number")
        accuracy_specs.append((name, field, floor))

    if args.speedup:
        pairs = []
        for spec in args.speedup:
            parts = spec.rsplit(",", 2)
            if len(parts) != 3 or not parts[0] or not parts[1]:
                die(f"--speedup {spec!r}: expected SLOW,FAST,FLOOR "
                    f"(three comma-separated fields)")
            slow, fast, floor_text = parts
            try:
                floor = float(floor_text)
            except ValueError:
                die(f"--speedup {spec!r}: floor {floor_text!r} is not a number")
            pairs.append((slow, fast, floor))
    else:
        pairs = [(args.scalar, args.batch, args.speedup_floor)]

    baseline = load_items_per_second(args.baseline)
    current = load_items_per_second(args.current)
    failures = []

    base_hw, run_hw = hardware(args.baseline), hardware(args.current)
    if base_hw is not None and run_hw is not None and base_hw != run_hw:
        print(f"SKIPPED (baseline: {describe(base_hw)}, run: {describe(run_hw)}): "
              f"{len(baseline)} rows of {args.baseline} not compared across hardware")
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
        ok = ratio >= 1.0 - args.tolerance
        print(f"{'OK' if ok else 'REGRESSION':11s} {name}: "
              f"{current[name] / 1e6:8.1f} M items/s "
              f"(baseline {baseline[name] / 1e6:8.1f}, {ratio:.2f}x)")
        if not ok:
            failures.append(
                f"{name}: {ratio:.2f}x of baseline "
                f"(threshold {1.0 - args.tolerance:.2f}x, "
                f"{current[name] / 1e6:.1f} vs {baseline[name] / 1e6:.1f} M items/s)")

    for slow, fast, floor in pairs:
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

    for name, field, floor in accuracy_specs:
        value = load_counter(args.current, name, field)
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
              f"{len(baseline) + len(pairs) + len(accuracy_specs)} "
              f"checks failed:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nPASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
