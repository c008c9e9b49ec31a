#!/usr/bin/env python3
"""bench/gates.json names only things that exist, and bench/run_gates.py
runs what it names.

The manifest checks tie every gate to its baseline file, to targets the
CMake files define and to floor rows its own benchmark filter can produce;
a soak-style gate must build every binary its ctest label runs. The runner
checks drive run_gate() over stub benchmark binaries in a temporary build
directory.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "bench"))
import run_gates  # noqa: E402

CONTEXT = {"num_cpus": 1, "mhz_per_cpu": 1000}
STUB = """
import json, os, sys
me, here = os.path.basename(sys.argv[0]), os.path.dirname(sys.argv[0])
with open(os.path.join(here, "calls"), "a") as f:
    f.write(me + "\\n")
with open(os.path.join(here, "calls")) as f:
    call = f.read().split().count(me) - 1
with open(os.path.join(here, me + ".json")) as f:
    spec = json.load(f)
out = [a.split("=", 1)[1] for a in sys.argv if a.startswith("--benchmark_out=")][0]
with open(out, "w") as f:
    json.dump({"context": spec["context"], "benchmarks": [
        {"name": spec["row"], "run_type": "iteration",
         "items_per_second": spec["rates"][call]}]}, f)
sys.exit(spec["exit"])
"""


def read(path):
    with open(os.path.join(REPO, path)) as f:
        return f.read()


def cmake_targets():
    names = set()
    for path in ("bench/CMakeLists.txt", "tests/CMakeLists.txt"):
        text = read(path)
        names.update(re.findall(
            r"\b(?:add_executable|add_custom_target|ustream_add_test|ustream_add_bench)"
            r"\((\w+)", text))
        names.update(re.findall(r"\$<TARGET_FILE:(\w+)>", text))
    return names


def binaries_run_by_label(label):
    """Every executable target a `ctest -L label` run starts, directly or
    through $<TARGET_FILE:...> arguments."""
    text = read("tests/CMakeLists.txt")
    tests = set()
    for names, labels in re.findall(
            r"set_tests_properties\(([^)]*?)PROPERTIES\s+LABELS\s+\"?([\w;]+)", text):
        if label in labels.split(";"):
            tests.update(names.split())
    commands = {name: [name] for name in re.findall(r"ustream_add_test\((\w+)\)", text)}
    for name, command in re.findall(r"add_test\(NAME (\w+) COMMAND ([^)]*)\)", text):
        commands[name] = command.split()[:1] + re.findall(r"\$<TARGET_FILE:(\w+)>", command)
    return {binary for test in tests for binary in commands[test]}


class Manifest(unittest.TestCase):
    gates = run_gates.load_gates()

    def test_gate_names_are_unique(self):
        names = [gate["name"] for gate in self.gates]
        self.assertEqual(len(names), len(set(names)), names)

    def test_targets_exist_and_cover_what_their_gate_runs(self):
        known = cmake_targets()
        for gate in self.gates:
            self.assertLessEqual(set(gate["targets"]), known, gate["name"])
            for run in gate.get("runs", []):
                self.assertIn(run["binary"], gate["targets"], gate["name"])
            if "ctest" in gate:
                self.assertLessEqual(binaries_run_by_label(gate["ctest"]),
                                     set(gate["targets"]), gate["name"])

    def test_floor_rows_are_in_the_baseline_and_the_filter(self):
        for gate in (gate for gate in self.gates if "baseline" in gate):
            path = os.path.join(REPO, "bench", gate["baseline"])
            self.assertTrue(os.path.isfile(path), path)
            with open(path) as f:
                rows = {row["name"]: row for row in json.load(f)["benchmarks"]}
            floors = [(slow, None) for slow, *_ in gate.get("speedup", [])]
            floors += [(fast, None) for _, fast, *_ in gate.get("speedup", [])]
            floors += [(name, field) for name, field, _ in gate.get("accuracy", [])]
            for name, field in floors:
                self.assertIn(name, rows, f"{gate['name']}: {name} not in {path}")
                if field is not None:
                    self.assertIn(field, rows[name], f"{gate['name']}: {name}")
                self.assertTrue(
                    any(re.search(run.get("filter", ""), name) for run in gate["runs"]),
                    f"{gate['name']}: no filter selects {name}")


class Runner(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.build = self.dir.name
        os.mkdir(os.path.join(self.build, "bench"))
        self.baseline = os.path.join(self.build, "baseline.json")

    def tearDown(self):
        self.dir.cleanup()

    def stub(self, name, row, rates, exit_code=0):
        path = os.path.join(self.build, "bench", name)
        with open(path, "w") as f:
            f.write(f"#!{sys.executable}\n{STUB}")
        os.chmod(path, 0o755)
        with open(path + ".json", "w") as f:
            json.dump({"row": row, "rates": rates, "exit": exit_code,
                       "context": CONTEXT}, f)

    def run_gate(self, gate, update=False):
        gate = {"name": "stub", "why": "", "targets": [], "baseline": self.baseline, **gate}
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            failure = run_gates.run_gate(gate, self.build, update)
        return failure, out.getvalue()

    def test_binary_exiting_non_zero_fails_its_gate(self):
        self.stub("bench_fail", "BM_X", [1e6], exit_code=3)
        failure, out = self.run_gate({"runs": [{"binary": "bench_fail"}]}, update=True)
        self.assertEqual(failure, "bench_fail exited with status 3", out)
        self.assertFalse(os.path.exists(self.baseline), "a failed gate wrote its baseline")

    def test_update_refreshes_only_a_passing_gates_baseline(self):
        self.stub("bench_x", "BM_X", [1e6, 3e6])
        with open(self.baseline, "w") as f:
            json.dump({"context": CONTEXT, "benchmarks": [
                {"name": "BM_X", "items_per_second": 2e6}]}, f)
        failure, out = self.run_gate({"runs": [{"binary": "bench_x"}]}, update=True)
        self.assertEqual(failure, "baseline or floor check failed", out)
        self.assertIn("REGRESSION", out)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f)["benchmarks"][0]["items_per_second"], 2e6)
        failure, out = self.run_gate({"runs": [{"binary": "bench_x"}]}, update=True)
        self.assertIsNone(failure, out)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f)["benchmarks"][0]["items_per_second"], 3e6)

    def test_min_cpus_above_the_host_skips_the_floor_with_a_note(self):
        host = len(os.sched_getaffinity(0))
        gate = {"speedup": [["A", "B", 2.0, host + 1], ["C", "D", 3.0, host], ["E", "F", 4.0]]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            floors = run_gates.speedup_floors(gate)
        self.assertEqual(floors, [("C", "D", 3.0), ("E", "F", 4.0)])
        self.assertIn(f"note: {host} core(s) < {host + 1}", out.getvalue())
        self.assertIn("B / A", out.getvalue())

    def test_repeated_passes_reach_the_check_as_medians(self):
        self.stub("bench_a", "BM_Slow", [1e6, 9e6, 2e6])
        self.stub("bench_b", "BM_Fast", [30e6, 10e6, 20e6])
        with open(self.baseline, "w") as f:
            json.dump({"context": CONTEXT, "benchmarks": [
                {"name": "BM_Slow", "items_per_second": 2e6},
                {"name": "BM_Fast", "items_per_second": 20e6}]}, f)
        failure, out = self.run_gate({
            "passes": 3, "runs": [{"binary": "bench_a"}, {"binary": "bench_b"}],
            "tolerance": 0.0, "speedup": [["BM_Slow", "BM_Fast", 10.0]]})
        self.assertIsNone(failure, out)
        self.assertIn("BM_Slow:      2.0 M items/s (baseline      2.0, 1.00x)", out)
        self.assertIn("BM_Fast:     20.0 M items/s (baseline     20.0, 1.00x)", out)
        self.assertIn("speedup (BM_Fast / BM_Slow): 10.00x", out)
        with open(os.path.join(self.build, "bench", "calls")) as f:
            self.assertEqual(f.read().split(), ["bench_a", "bench_b"] * 3)


if __name__ == "__main__":
    unittest.main()
