#!/usr/bin/env python3
"""The pre-merge gate: performance and robustness, one command.

Runs the gates listed in bench/gates.json, in manifest order: the
throughput and merge gates want a quiet machine, so they run before the
soak heats the cores; the net and wal rows after it are RTT- and
storage-bound. For each gate the runner

  * builds the gate's `targets`;
  * with `ctest`, runs that ctest label; otherwise runs every `runs`
    binary (`passes` times, interleaved, when passes > 1) with JSON
    output, merging repeated passes into one file, so every row reaches
    the check as the median of its samples;
  * checks the run against `baseline` (rows within `tolerance`, 0.30
    by default) and the in-run `speedup` floors [SLOW, FAST, FLOOR]
    and `accuracy` floors [NAME, FIELD, FLOOR] via
    check_regression.check(). A speedup floor with a fourth value,
    min_cpus, is enforced only where this process may use that many CPUs.

A benchmark binary that exits non-zero fails its gate (bench_continuous
checks its own (eps, delta) envelope this way). Every selected gate runs;
one verdict line per gate ends the output, and the exit status is 1 if
any gate failed. --update refreshes the baseline of each perf gate that
passed; a missing baseline is always written.

Usage:
  bench/run_gates.py [--update] [--build DIR] [GATE ...]
"""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

import check_regression

BENCH = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(BENCH, "gates.json")


class GateFailed(Exception):
    pass


def load_gates():
    with open(MANIFEST) as f:
        return json.load(f)["gates"]


def run(cmd, **kwargs):
    print("+ " + shlex.join(cmd))
    code = subprocess.run(cmd, **kwargs).returncode
    if code != 0:
        raise GateFailed(f"{os.path.basename(cmd[0])} exited with status {code}")


def benchmark_command(build, spec, out):
    cmd = [os.path.join(build, "bench", spec["binary"])]
    for key in ("filter", "min_time", "repetitions"):
        if key in spec:
            cmd.append(f"--benchmark_{key}={spec[key]}")
    return cmd + [f"--benchmark_out={out}", "--benchmark_out_format=json"]


def measure(gate, build, scratch):
    """Runs the gate's binaries and returns the path of one JSON file
    holding every row they produced."""
    outputs = []
    for _ in range(gate.get("passes", 1)):
        for spec in gate["runs"]:
            outputs.append(os.path.join(scratch, f"run{len(outputs)}.json"))
            run(benchmark_command(build, spec, outputs[-1]))
    if len(outputs) == 1:
        return outputs[0]
    merged = check_regression.load_json(outputs[0])
    for path in outputs[1:]:
        merged["benchmarks"].extend(check_regression.load_json(path)["benchmarks"])
    current = os.path.join(scratch, "merged.json")
    with open(current, "w") as f:
        json.dump(merged, f, indent=1)
    return current


def speedup_floors(gate):
    """The gate's (SLOW, FAST, FLOOR) floors this host can express."""
    cpus = len(os.sched_getaffinity(0))
    floors = []
    for slow, fast, floor, *min_cpus in gate.get("speedup", []):
        if min_cpus and cpus < min_cpus[0]:
            print(f"note: {cpus} core(s) < {min_cpus[0]} — {fast} / {slow} "
                  f"floor not enforced on this machine")
        else:
            floors.append((slow, fast, floor))
    return floors


def run_gate(gate, build, update):
    """None if the gate passed, else why it failed."""
    try:
        if gate["targets"]:
            run(["cmake", "--build", build, "--target", *gate["targets"], "-j"],
                stdout=subprocess.DEVNULL)
        if "ctest" in gate:
            run(["ctest", "--test-dir", build, "-L", gate["ctest"], "--output-on-failure"])
            return None
        with tempfile.TemporaryDirectory() as scratch:
            current = measure(gate, build, scratch)
            baseline = os.path.join(BENCH, gate["baseline"])
            if not os.path.exists(baseline):
                print(f"no baseline at {baseline} yet; skipping regression gate")
            elif check_regression.check(
                    baseline, current,
                    gate.get("tolerance", check_regression.DEFAULT_TOLERANCE),
                    speedup_floors(gate), gate.get("accuracy", [])) != 0:
                return "baseline or floor check failed"
            if update or not os.path.exists(baseline):
                shutil.copyfile(current, baseline)
                print(f"baseline refreshed: {baseline}")
        return None
    except (GateFailed, check_regression.BadInput, OSError) as exc:
        return str(exc)


def main():
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help="refresh the baseline of every perf gate that passes")
    parser.add_argument("--build", metavar="DIR",
                        default=os.path.join(os.path.dirname(BENCH), "build"),
                        help="build directory (default: build/ in the repository)")
    parser.add_argument("gates", nargs="*", metavar="GATE",
                        help="gates to run (default: all)")
    args = parser.parse_args()

    gates = load_gates()
    names = [gate["name"] for gate in gates]
    unknown = [name for name in args.gates if name not in names]
    if unknown:
        parser.error(f"unknown gate {', '.join(unknown)} (gates: {', '.join(names)})")
    build = os.path.abspath(args.build)
    if not os.path.isdir(build):
        print(f"build directory {build} not found; run cmake -B build -S . first",
              file=sys.stderr)
        return 2

    verdicts = []
    for index, gate in enumerate(gates, 1):
        if args.gates and gate["name"] not in args.gates:
            continue
        print(f"== gate {index}/{len(gates)}: {gate['name']} — {gate['why']} ==")
        verdicts.append((gate["name"], run_gate(gate, build, args.update)))

    print("\n== verdicts ==")
    for name, failure in verdicts:
        print(f"PASS  {name}" if failure is None else f"FAIL  {name}: {failure}")
    return 1 if any(failure is not None for _, failure in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
