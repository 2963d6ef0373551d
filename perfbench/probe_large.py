"""Capped probe of a large fixture rung; not a benchmark workload.

    python3 perfbench/probe_large.py --users 2000 --articles 10000 --cap 300

Run from the root of a checkout. Generates a fixture input (fixture
lexicon, all models, both splits) of the given size with seed 1 for the
text (the click log has the workloads' fixed seed), runs the pipeline once
in a child process, and kills it after --cap seconds. Prints
one JSON line with the stages that finished, and when, and how the run ended.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

import run
from workloads import ALL_MODELS, Workload, generate_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--articles", type=int, required=True)
    parser.add_argument("--cap", type=float, required=True, help="seconds")
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    w = Workload("large", users=args.users, articles=args.articles, models=ALL_MODELS, features="tfidf")
    workdir = os.path.join(run.ROOT, ".perfbench", "probe-%dx%d" % (args.users, args.articles))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        generated = time.monotonic()
        config = generate_inputs(w, 1, workdir)
        generated = time.monotonic() - generated
        try:
            result = run.run_child(config, w.models, "probe", timeout=args.cap)
            outcome = "error" if "error" in result else "finished"
        except subprocess.TimeoutExpired:
            outcome = "timed out at %g s" % args.cap
        with open(os.path.join(workdir, "child-probe.log"), "r", encoding="utf-8") as fh:
            stages = dict(re.findall(r"^stage (\w+) done at ([\d.]+) s$", fh.read(), re.M))
        print(json.dumps({
            "users": args.users, "articles": args.articles, "cap_s": args.cap,
            "input_generation_s": round(generated, 3), "outcome": outcome,
            "stage_done_at_s": {k: float(v) for k, v in stages.items()},
            "blas_threads": run.BLAS_THREADS,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
