#!/usr/bin/env python3
"""Run every benchmark workload once and record the results.

For each workload listed in BENCHMARK.json this runs

    python3 perfbench/run.py --workload <name> --seed 9 --seconds S --trace 0

from the repository root, where S is BENCHMARK.json's run_seconds, and
keeps the JSON result line it prints last.  All of them go into one file,
BENCH_<pr>.json at the repository root, with the seed, the run length and
the machine they were measured on.  The seed and run length are fixed, so
that successive changes leave a trajectory of the same measurements.

Usage: python3 scripts/bench.py --pr N

Exits 1 when a workload run fails or prints no result line.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 9


def run_workload(name, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workload %s exited %d: %s"
                           % (name, proc.returncode, proc.stderr.strip()))
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number of the change; names BENCH_<pr>.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        try:
            results[name] = run_workload(name, SEED, seconds)
        except (RuntimeError, ValueError) as e:
            print("bench: %s" % e, file=sys.stderr)
            return 1
        print("bench: %s %s" % (name, json.dumps(results[name])))
    doc = {"pr": args.pr, "seed": SEED, "seconds": seconds,
           "machine": {"cpus": os.cpu_count(),
                       "platform": platform.platform(),
                       "python": platform.python_version()},
           "workloads": results}
    path = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("bench: wrote %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
