"""One pipeline run in a fresh process: the stages of `run_pipeline`, timed.

Usage (from run.py, with PYTHONPATH pointing at the repository's src/):
    python3 perfbench/child.py --config RUN.toml --out DIR --models almm,oord \
        --result RESULT.json [--until featurize] [--trace SPANS.jsonl]

Writes RESULT.json with CLOCK_MONOTONIC stage end times, the stage counters,
peak RSS and the SHA-256 of metrics.csv; with --trace, also the per-layer
metrics derived from the spans, which it writes to SPANS.jsonl.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

STAGES = ("ingest", "triplets", "split", "featurize", "train", "evaluate")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--models", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--until", default="evaluate", choices=STAGES)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    result = {"started": STARTED, "stage_end": {}, "counters": {}}
    tracer = None
    try:
        from coldrec import pipeline
        from coldrec.config import load_config

        cfg = load_config(args.config, out_dir=args.out)
        cfg = dataclasses.replace(cfg, model_kinds=args.models.split(","))
        cfg.validate()
        stage_fns = [(name, getattr(pipeline, "stage_" + name)) for name in STAGES]
        if args.trace:
            import layers
            from tracing import Tracer

            # The work directory is named <workload>-<seed>.
            tracer = Tracer(run_id=os.path.basename(os.path.dirname(os.path.abspath(args.trace))))
            tracer.install(layers.notes())
            stage_fns = [(n, tracer.span("pipeline." + n, fn)) for n, fn in stage_fns]
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, fn in stage_fns:
            result["counters"].update(fn(cfg))
            result["stage_end"][name] = time.monotonic()
            print("stage %s done at %.3f s" % (name, result["stage_end"][name] - STARTED), flush=True)
            if name == args.until:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.until == "evaluate":
            result["metrics_sha256"] = _sha256(pipeline.metrics_path(cfg))
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace)
            result["layers"] = layers.derive(tracer, cfg, result["counters"])
    except Exception:  # noqa: BLE001 - the parent reports the failure and carries on
        result["error"] = traceback.format_exc()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
