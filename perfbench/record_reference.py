"""Record reference metrics.csv values for the output check.

    python3 perfbench/record_reference.py --workload mid --seeds 0-19

Run from the root of a checkout whose results are trusted. For each seed it
generates the workload's inputs, runs the pipeline once, verifies the run
against the oracle and stores the metrics.csv values in
perfbench/reference/<workload>.json, keyed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
from check import Verdict, read_curves
from workloads import WORKLOADS, generate_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    sys.path.insert(0, run.SRC)
    w = WORKLOADS[args.workload]
    path = os.path.join(run.HERE, "reference", "%s.json" % w.name)
    with open(path, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    for seed in range(first, last + 1):
        workdir = os.path.join(run.ROOT, ".perfbench", "record-%s-%d" % (w.name, seed))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            config = generate_inputs(w, seed, workdir)
            result = run.run_child(config, w.models, "ref")
            verdict = Verdict(w, seed)
            verdict.reference = None
            verdict.add_run(result)
            if not verdict.correct:
                print("seed %d: run failed the output check" % seed, file=sys.stderr)
                return 1
            reference[str(seed)] = read_curves(os.path.join(result["out"], "metrics.csv"))
            print("seed %d: recorded" % seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
