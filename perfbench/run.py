"""coldrec pipeline benchmark.

    python3 perfbench/run.py --workload mid --seed 1 --seconds 36 --trace 0

Run from the root of a checkout of the repository. Generates the workload's
inputs from the seed (untimed), then runs the whole pipeline on them in fresh
child processes until --seconds have passed (at least MIN_REPS times), and
checks every run's metrics.csv. Timings are scaled to a reference machine
speed by a probe on a second CPU (SpeedProbe). With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics (medians over
runs); with --trace 1 it carries the per-layer metrics of one extra, traced
run. Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
END_TO_END = (
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("train_s", "s"),
    ("evaluate_s", "s"),
    ("peak_rss_mb", "MB"),
)


# One BLAS thread: on the 2-core reference machine a second thread made the
# train stage neither faster nor steadier (its run-to-run spread rose).
BLAS_THREADS = 1

# Iteration time of the speed probe's kernel, in seconds, at the reference
# speed: its median on the 2-core reference machine. Timings are reported in
# seconds at this speed (see SpeedProbe).
PROBE_REF_S = 0.0014
# Fewest probe iterations an interval must span to be scaled.
PROBE_MIN_ITERATIONS = 50


class SpeedProbe:
    """Tracks the machine's speed while the pipeline runs.

    On the reference machine, a 2-vCPU KVM guest, one run on the same inputs
    took from 2.5 to 4.7 s within minutes, and a kernel timed on the other
    core sped up and slowed down along with it. The probe times a fixed
    kernel back to back on the second CPU, and `scale` turns a wall time on
    the first CPU into seconds at the reference speed: wall time x
    PROBE_REF_S / the probe's mean iteration time over the same interval.
    That removes the part of the noise the two cores share; slowdowns of
    one core alone remain.
    """

    def __init__(self, workdir: str, cpu: int):
        self.path = os.path.join(workdir, "probe-ends.json")
        self.ends: list = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed_probe.py"), self.path, str(cpu)],
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("speed probe failed to start")

    def stop(self) -> None:
        """Stops the probe, waits for it and loads its iteration end times."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                self.ends = json.load(fh)

    def scale(self, start: float, end: float) -> float:
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.ends, end) - 1
        if last - first < PROBE_MIN_ITERATIONS:
            raise RuntimeError("speed probe: %d iterations in [%.3f, %.3f]"
                               % (max(0, last - first), start, end))
        return PROBE_REF_S * (last - first) / (self.ends[last] - self.ends[first])


def run_child(config: str, models, tag: str, until="evaluate", trace=False,
              timeout=CHILD_TIMEOUT_S) -> dict:
    """Run child.py on the inputs of `config`; its outputs go next to the config.

    Raises subprocess.TimeoutExpired, after killing the child, past `timeout`."""
    workdir = os.path.dirname(config)
    out = os.path.join(workdir, "out-" + tag)
    shutil.rmtree(out, ignore_errors=True)
    result_path = os.path.join(workdir, "result-%s.json" % tag)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", config, "--out", out,
           "--models", ",".join(models), "--result", result_path, "--until", until]
    if trace:
        cmd += ["--trace", os.path.join(workdir, "spans.jsonl")]
    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    with open(os.path.join(workdir, "child-%s.log" % tag), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    try:
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except FileNotFoundError:
        result = {"error": "child exited with code %d and wrote no result" % proc.returncode}
    result["spawned"] = spawned
    result["out"] = out
    return result


def timings(result: dict, speed=None) -> dict:
    """End-to-end metrics of one full run; timings in wall seconds, or with
    `speed`, in seconds at the reference speed."""
    end = result["stage_end"]

    def span(start, stop):
        return (stop - start) * (speed.scale(start, stop) if speed else 1.0)

    return {
        "pipeline_s": span(result["spawned"], end["evaluate"]),
        "setup_s": span(result["spawned"], end["featurize"]),
        "train_s": span(end["featurize"], end["train"]),
        "evaluate_s": span(end["train"], end["evaluate"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coldrec", "pipeline.py")):
        print("error: coldrec sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    w = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", "%s-%d" % (w.name, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def collect(w, args, config: str, verdict) -> tuple:
    """The timed children of one invocation; returns the results of the full
    runs that succeeded, and that of the traced run."""
    runs = []
    # Every run reads the same inputs, so the set of runs does not depend on
    # how fast they are, and every run after the first is a rerun check.
    started = time.monotonic()
    attempts = 0
    while attempts < MIN_REPS or time.monotonic() - started < args.seconds:
        result = run_child(config, w.models, "run%d" % attempts)
        attempts += 1
        verdict.add_run(result)
        shutil.rmtree(result["out"], ignore_errors=True)
        if "error" not in result:
            runs.append(result)
    traced = None
    if args.trace:
        traced = run_child(config, w.models, "traced", trace=True)
        if "error" not in traced:
            verdict.add_run(traced)
        shutil.rmtree(traced["out"], ignore_errors=True)
    return runs, traced


def measure(w, args, workdir: str) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        print("error: needs two CPUs, one for the pipeline and one for the speed probe",
              file=sys.stderr)
        return 2
    # This process and its children run on the first CPU, the probe on the second.
    os.sched_setaffinity(0, {cpus[0]})
    print("workload %s seed %d: %d users x %d articles, models %s, features %s, BLAS threads %d, "
          "pipeline on CPU %d, speed probe on CPU %d"
          % (w.name, args.seed, w.users, w.articles, ",".join(w.models), w.features,
             BLAS_THREADS, cpus[0], cpus[1]))
    config = generate_inputs(w, args.seed, workdir)
    verdict = check.Verdict(w, args.seed)
    # Warm-up: byte-compiles coldrec and fills the file cache, a cost users
    # pay once per installation rather than once per run.
    run_child(config, w.models, "warmup", until="featurize")
    speed = SpeedProbe(workdir, cpus[1])
    try:
        runs, traced = collect(w, args, config, verdict)
    finally:
        speed.stop()

    if not runs:
        print("error: every run failed; first error:\n%s" % verdict.first_error, file=sys.stderr)
        return 1
    samples: dict[str, list] = {name: [] for name, _ in END_TO_END}
    wall: dict[str, list] = {name: [] for name, _ in END_TO_END}
    for result in runs:
        for name, value in timings(result, speed).items():
            samples[name].append(value)
        for name, value in timings(result).items():
            wall[name].append(value)
    medians = {name: statistics.median(v) for name, v in samples.items()}
    for name, unit in END_TO_END:
        v = samples[name]
        print("%-24s %12.6g %-5s (median of %d; wall-clock median %.6g; samples %s)"
              % (name, medians[name], unit, len(v), statistics.median(wall[name]),
                 " ".join("%.6g" % x for x in v)))
    for line in verdict.report_lines():
        print(line)

    if args.trace:
        if "error" in traced:
            print("error: traced run failed:\n%s" % traced["error"], file=sys.stderr)
            return 1
        per_layer = dict(traced["layers"])
        per_layer["trace.overhead_share"] = (
            timings(traced, speed)["pipeline_s"] / medians["pipeline_s"] - 1.0
        )
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        kept = os.path.join(trace_dir, "%s-%d.jsonl" % (w.name, args.seed))
        shutil.move(os.path.join(workdir, "spans.jsonl"), kept)
        print("spans written to %s" % os.path.relpath(kept, ROOT))
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
        for name, unit, _ in layers.PER_LAYER:
            print("%-34s %14.6g %s" % (name, per_layer[name], unit))
    else:
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
