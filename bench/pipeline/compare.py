#!/usr/bin/env python3
"""Compares two sets of pipeline benchmark results under BENCHMARK.json's bounds.

    python3 bench/pipeline/compare.py BASE NEW

BASE and NEW each name a directory of result files written by
`run.py --out`, or a quoted glob of them. Untraced results only. For every
workload x end-to-end metric the script prints each side's median and
quartiles (statistics.quantiles, n=4), the change of the medians, and a
verdict:

  ok          NEW's median is not worse than BASE's by more than the bound
  worse       it is
  unresolved  either side's quartile spread (IQR / median) exceeds the
              bound, unless every NEW run reads better than every BASE run

Exit status: 0 when nothing is worse, 1 when some pair is worse or a result
failed its correctness checks, 2 when the two sides were measured on
different hardware (nproc, CPU model, MHz to 100 MHz) or the input is
unusable. Incorrect results are reported and left out of the statistics.
"""

import glob
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(spec):
    files = sorted(glob.glob(str(Path(spec) / "*.json")) if Path(spec).is_dir()
                   else glob.glob(spec))
    results = [json.loads(Path(f).read_text()) for f in files]
    return [r for r in results if r.get("trace") == 0]


def hardware(results):
    """The fingerprint fields that describe the machine, not the build."""
    return {(r["fingerprint"]["nproc"], r["fingerprint"]["cpu_model"],
             round(float(r["fingerprint"]["cpu_mhz"] or 0) / 100))
            for r in results}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        sys.stderr.write("compare.py: no untraced results on one side\n")
        return 2
    hw_base, hw_new = hardware(base), hardware(new)
    if len(hw_base | hw_new) != 1:
        sys.stderr.write(f"compare.py: different hardware: {sorted(hw_base)} vs {sorted(hw_new)}\n")
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for side, results in (("base", base), ("new", new)):
        for r in results:
            if not r["result"]["correct"]:
                print(f"{side}: {r['workload']} seed {r['seed']} failed its correctness checks")
                status = 1
    base = [r for r in base if r["result"]["correct"]]
    new = [r for r in new if r["result"]["correct"]]

    print(f"{'workload':<15} {'metric':<22} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["result"]["metrics"][name]["value"] for r in new if r["workload"] == workload]
            qa, qb = quartiles(a), quartiles(b)
            lower = metric["better"] == "lower"
            change = (qb[1] - qa[1]) / qa[1]
            worse_by = change if lower else -change
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                status = 1
            else:
                verdict = "ok"
            print(f"{workload:<15} {name:<22} {cell(qa):>30} {cell(qb):>30} "
                  f"{100 * change:>+7.1f}% {100 * bound:>5.0f}%  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
