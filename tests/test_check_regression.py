#!/usr/bin/env python3
"""bench/check_regression.py refuses to compare rates across hardware.

Two fixtures: a 1-CPU @2100 MHz baseline and a 4-CPU @3000 MHz run whose
rates are 10x lower. Across machines the vs-baseline rows are skipped with
one SKIPPED line, while the in-run --speedup and --accuracy floors still
decide the exit status; on matching hardware the same drop is a regression.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "bench", "check_regression.py")
ONE_CPU = os.path.join(HERE, "fixtures", "bench_1cpu.json")
FOUR_CPUS = os.path.join(HERE, "fixtures", "bench_4cpu.json")


def gate(baseline, current, *extra):
    run = subprocess.run([sys.executable, SCRIPT, "--baseline", baseline, "--current", current,
                          *extra], capture_output=True, text=True)
    return run.returncode, run.stdout + run.stderr


class HardwareGuard(unittest.TestCase):
    def test_cross_hardware_rows_are_skipped_loudly(self):
        code, out = gate(ONE_CPU, FOUR_CPUS, "--speedup", "BM_Slow,BM_Fast,1.5")
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED (baseline: 1 CPU @2100 MHz, run: 4 CPUs @3000 MHz)", out)
        self.assertEqual(out.count("SKIPPED"), 1, out)
        self.assertNotIn("REGRESSION", out)

    def test_in_run_floors_still_enforced_across_hardware(self):
        code, out = gate(ONE_CPU, FOUR_CPUS, "--speedup", "BM_Slow,BM_Fast,3.0")
        self.assertEqual(code, 1, out)
        self.assertIn("TOO SLOW", out)
        code, out = gate(ONE_CPU, FOUR_CPUS, "--speedup", "BM_Slow,BM_Fast,1.5",
                         "--accuracy", "BM_Fast,recall,0.9")
        self.assertEqual(code, 1, out)
        self.assertIn("TOO LOW", out)

    def test_same_hardware_still_gates_against_baseline(self):
        with open(FOUR_CPUS) as f:
            slow = json.load(f)
        with open(ONE_CPU) as f:
            slow["context"] = json.load(f)["context"]
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(slow, f)
        try:
            code, out = gate(ONE_CPU, f.name, "--speedup", "BM_Slow,BM_Fast,1.5")
        finally:
            os.unlink(f.name)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertNotIn("SKIPPED", out)
        code, out = gate(ONE_CPU, ONE_CPU, "--speedup", "BM_Slow,BM_Fast,1.5")
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
