#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark for one workload.

    python3 bench/pipeline/run.py --workload NAME --seed S --seconds T \
        --trace 0|1 [--out RESULT.json]

Run from anywhere inside a checkout of the repository. The first call
configures and builds bench/pipeline (the library, the `ustream` referee and
the bench_pipeline generator) into .bench_build/ at the repository root;
later calls only let the build check that it is up to date. The generator's
output is passed through unchanged: `workload metric value unit` lines, then
one JSON result line. Traced runs also leave a Chrome trace under
.bench_build/traces/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
BUILD = ROOT / ".bench_build"
WORKLOADS = ("oneshot_f0", "continuous_wal", "live_query", "oneshot_freq")
# A run must finish within 180 s; leave room for the build check and cleanup.
GENERATOR_TIMEOUT_S = 165


def build():
    """Configures on first use, then builds; exits 1 with the log on failure."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temporaries in the checkout
    log_path = BUILD / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not ((BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                log.flush()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                sys.stderr.write(f"run.py: build failed; full log in {log_path}\n")
                sys.exit(1)


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--out", help="also write the result, with the host fingerprint, here")
    args = parser.parse_args()

    build()
    work = BUILD / f"run-{os.getpid()}"
    cmd = [str(BUILD / "bench_pipeline"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve", str(BUILD / "ustream" / "cli" / "ustream"),
           "--work-dir", str(work)]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.out:
        cmd += ["--out", str(Path(args.out).resolve())]

    # Its own session, so a timeout can take down the referee children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            env=dict(os.environ, BENCH_COMMIT=commit()))
    try:
        out, _ = proc.communicate(timeout=GENERATOR_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"run.py: {args.workload} did not finish in {GENERATOR_TIMEOUT_S} s\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
