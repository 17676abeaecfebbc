#!/usr/bin/env python3
"""rfbench runner: builds the rfbench workload program (and the rfade
library it links) from the source tree, runs one workload, and prints
every metric by name and unit.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 rfbench/run.py --workload serve_ols16 --seed 1 --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the stage-replay
trace and prints the per-layer metrics.  Exits nonzero on a build failure,
a workload-program failure, or any failed operation or correctness check."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "rfbench_workload"
WORKLOADS = ("serve_ols16", "instant_n64", "churn_mixed")


def log(message):
    print(f"rfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (first run only) and build the workload program; build output goes
    to stderr so stdout stays the result."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    for step in steps:
        completed = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=850, env=env)
        if completed.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = benchlib.load_spec(ROOT / "BENCHMARK.json")
    build()
    command = [str(PROGRAM), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=args.seconds + 60)
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise RuntimeError(f"workload program exited with {completed.returncode}")
    record = json.loads(completed.stdout)

    attempted, failed = record["attempted"], record["failed"]
    failed_frac, correct = benchlib.failure_accounting(attempted, failed)
    trace = bool(args.trace)
    if trace:
        values = record["layers"]
        counts = {}
    else:
        values, counts = benchlib.end_to_end(record)
    units = benchlib.declared(spec, trace)
    benchlib.check_names(values, spec, trace)

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if counts:
        print("samples " + json.dumps(counts, sort_keys=True))
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"failed_frac = {failed_frac:.6g} ({failed} of {attempted} "
          f"operations)")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    print(benchlib.result_line(values, spec, trace, attempted, failed))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # noqa: BLE001 - any failure means no result
        log(f"error: {error}")
        sys.exit(2)
