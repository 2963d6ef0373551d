"""Per-layer metrics from one traced run: span names and counts -> named numbers.

Layer = coldrec module. Timings come from the spans of tracing.py; the
negative-sampling shortfall and the cold-candidate / unseen-user shares are
computed from public objects (arguments, return values, persisted splits and
models) until the program emits such counters itself.
"""

from __future__ import annotations

import os

from tracing import summarize

# (name, unit, better). The end-to-end metric each should move, and on which
# workload, is listed in perfbench/README.md.
PER_LAYER = (
    ("pipeline.ingest_s", "s", "lower"),
    ("pipeline.triplets_s", "s", "lower"),
    ("pipeline.split_s", "s", "lower"),
    ("pipeline.featurize_s", "s", "lower"),
    ("mind.clicks", "count", "higher"),
    ("transitions.triplets", "count", "higher"),
    ("splits.test_queries", "count", "higher"),
    ("features.vocab", "count", "higher"),
    ("features.model_dim", "count", "higher"),
    ("features.nnz_per_row", "count", "higher"),
    ("models.negatives_s", "s", "lower"),
    ("models.instances", "count", "higher"),
    ("models.negatives_shortfall", "count", "lower"),
    ("models.als_update_s", "s", "lower"),
    ("models.als_row_solve_s", "s", "lower"),
    ("models.als_row_solves", "count", "lower"),
    ("models.ridge_mapping_s", "s", "lower"),
    ("models.ridge_mapping_calls", "count", "lower"),
    ("models.ridge_mapping_gram_mb", "MB", "lower"),
    ("models.refresh_s", "s", "lower"),
    ("models.loss_eval_s", "s", "lower"),
    ("models.loss_evals", "count", "lower"),
    ("models.forbes_train_s", "s", "lower"),
    ("models.forbes_updates", "count", "higher"),
    ("models.forbes_update_us", "us", "lower"),
    ("models.almm_train_s", "s", "lower"),
    ("models.oord_train_s", "s", "lower"),
    ("models.save_s", "s", "lower"),
    ("models.load_s", "s", "lower"),
    ("metrics.queries", "count", "higher"),
    ("metrics.predict_s", "s", "lower"),
    ("metrics.predict_ms_p50", "ms", "lower"),
    ("metrics.predict_ms_p99", "ms", "lower"),
    ("metrics.candidates_scored", "count", "higher"),
    ("metrics.evaluate_self_s", "s", "lower"),
    ("metrics.cold_candidate_share", "share", "higher"),
    ("metrics.unseen_user_share", "share", "higher"),
    ("metrics.diversity_s", "s", "lower"),
    ("metrics.cosine_pairs", "count", "higher"),
    ("metrics.novelty_s", "s", "lower"),
    ("metrics.map_recall_s", "s", "lower"),
    ("numerics.ridge_solve_calls", "count", "lower"),
    ("numerics.cosine_distance_calls", "count", "lower"),
    ("numerics.matrix_io_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

_TRAINER_SPANS = ("models.almm_train", "models.forbes_train", "models.oord_train")


class TraceError(RuntimeError):
    """A traced layer the workload must exercise recorded no calls."""


def notes() -> dict:
    """Per-call size notes, taken from arguments and return values."""
    return {
        # stage_train calls sample_negatives(train_set, negatives_per_positive, seed)
        "models.sample_negatives": lambda a, k, r: (len(a[0]) * (1 + a[1]), len(r)),
        # trainers are called as trainer(instances, content, hyper, ...)
        "models.forbes_train": lambda a, k, r: len(a[0]) * a[2].sgd_epochs,
        "features.transform": lambda a, k, r: (r.matrix.nnz, r.matrix.shape[0]),
    }


def _required(cfg) -> set:
    """Layer entry points the workload must reach. Helpers inside a layer (row
    solves, predict, cosine_distance, ...) may legitimately drop to zero calls
    when a kernel is batched, so only their absence as names is an error."""
    names = {
        "pipeline.ingest", "pipeline.triplets", "pipeline.split", "pipeline.featurize",
        "pipeline.train", "pipeline.evaluate", "mind.parse_news", "mind.parse_behaviors",
        "mind.validate_clicks", "mind.history_popularity", "transitions.build_tensor",
        "transitions.build_triplets", "features.fit_tfidf", "features.transform",
        "models.sample_negatives", "models.save_model", "models.load_model",
        "metrics.evaluate", "metrics.map_recall", "metrics.novelty", "metrics.diversity",
        "metrics.emit_curves",
    }
    names |= {"splits.make_%s_split" % kind for kind in cfg.split_kinds}
    names |= {"models.%s_train" % kind for kind in cfg.model_kinds}
    if cfg.feature_kind == "external":
        names.add("features.load_external_embeddings")
    return names


def _evaluation_shares(cfg) -> dict:
    """Unseen users and cold candidates over every evaluated (model, split) pair."""
    from coldrec.metrics import candidate_universe
    from coldrec.models import load_model
    from coldrec.pipeline import MODELS_DIR, SPLITS_DIR
    from coldrec.splits import load_split

    queries = unseen = candidates = cold = pairs = 0
    for split_kind in cfg.split_kinds:
        split = load_split(os.path.join(cfg.out_dir, SPLITS_DIR, split_kind))
        universe = candidate_universe(split)
        for model_kind in cfg.model_kinds:
            model = load_model(os.path.join(cfg.out_dir, MODELS_DIR, "%s-%s" % (model_kind, split_kind)))
            cold_universe = {a for a in universe if a not in model.articles}
            for t in split.test:
                queries += 1
                unseen += t.user not in model.users
                candidates += len(universe) - 1
                cold += len(cold_universe) - (t.last_article in cold_universe)
            for k in cfg.ks:
                head = min(k, len(universe) - 1)
                pairs += len(split.test) * head * (head - 1) // 2
    return {
        "queries": queries,
        "unseen_user_share": unseen / queries,
        "candidates": candidates,
        "cold_candidate_share": cold / candidates,
        "cosine_pairs": pairs,
    }


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def derive(tracer, cfg, counters: dict) -> dict:
    spans = tracer.spans
    missing = sorted(n for n in _required(cfg) if not any(s[1] == n for s in spans))
    if missing:
        raise TraceError("traced layers recorded zero calls: %s" % ", ".join(missing))
    summary = summarize(spans)
    names = {s[0]: s[1] for s in spans}

    def total(name):
        return summary[name]["total"] if name in summary else 0.0

    def under(name, parents):
        picked = [s for s in spans if s[1] == name and names.get(s[4]) in parents]
        return len(picked), sum(s[3] - s[2] for s in picked)

    row_solves, row_solve_s = under("numerics.ridge_solve", ("models.als_update",))
    map_solves, map_solve_s = under("numerics.ridge_solve", _TRAINER_SPANS)
    _, refresh_s = under("models.materialize", ("models.almm_train",))
    negatives = tracer.sizes.get("models.sample_negatives", [])
    forbes_updates = sum(tracer.sizes.get("models.forbes_train", []))
    nnz, rows = map(sum, zip(*tracer.sizes["features.transform"]))
    predict_ms = [d * 1e3 for d in summary.get("metrics.predict", {}).get("durations", [0.0])]
    model_dim = counters.get("external_dim", counters["tfidf_vocabulary"])
    shares = _evaluation_shares(cfg)
    return {
        "pipeline.ingest_s": total("pipeline.ingest"),
        "pipeline.triplets_s": total("pipeline.triplets"),
        "pipeline.split_s": total("pipeline.split"),
        "pipeline.featurize_s": total("pipeline.featurize"),
        "mind.clicks": counters["clicks_kept"],
        "transitions.triplets": counters["triplets"],
        "splits.test_queries": sum(counters["split_%s_test_entries" % k] for k in cfg.split_kinds),
        "features.vocab": counters["tfidf_vocabulary"],
        "features.model_dim": model_dim,
        "features.nnz_per_row": nnz / rows,
        "models.negatives_s": total("models.sample_negatives"),
        "models.instances": sum(n for _, n in negatives),
        "models.negatives_shortfall": sum(e - n for e, n in negatives),
        "models.als_update_s": summary.get("models.als_update", {}).get("self", 0.0),
        "models.als_row_solve_s": row_solve_s,
        "models.als_row_solves": row_solves,
        "models.ridge_mapping_s": map_solve_s,
        "models.ridge_mapping_calls": map_solves,
        "models.ridge_mapping_gram_mb": model_dim * model_dim * 8 / 1e6,
        "models.refresh_s": refresh_s,
        "models.loss_eval_s": total("models.loss_eval"),
        "models.loss_evals": summary.get("models.loss_eval", {}).get("calls", 0),
        "models.forbes_train_s": total("models.forbes_train"),
        "models.forbes_updates": forbes_updates,
        "models.forbes_update_us": (
            total("models.forbes_train") / forbes_updates * 1e6 if forbes_updates else 0.0
        ),
        "models.almm_train_s": total("models.almm_train"),
        "models.oord_train_s": total("models.oord_train"),
        "models.save_s": total("models.save_model"),
        "models.load_s": total("models.load_model"),
        "metrics.queries": shares["queries"],
        "metrics.predict_s": total("metrics.predict"),
        "metrics.predict_ms_p50": _percentile(predict_ms, 0.50),
        "metrics.predict_ms_p99": _percentile(predict_ms, 0.99),
        "metrics.candidates_scored": shares["candidates"],
        "metrics.evaluate_self_s": summary["metrics.evaluate"]["self"],
        "metrics.cold_candidate_share": shares["cold_candidate_share"],
        "metrics.unseen_user_share": shares["unseen_user_share"],
        "metrics.diversity_s": total("metrics.diversity"),
        "metrics.cosine_pairs": shares["cosine_pairs"],
        "metrics.novelty_s": total("metrics.novelty"),
        "metrics.map_recall_s": total("metrics.map_recall"),
        "numerics.ridge_solve_calls": summary.get("numerics.ridge_solve", {}).get("calls", 0),
        "numerics.cosine_distance_calls": tracer.counts["numerics.cosine_distance"],
        "numerics.matrix_io_s": total("numerics.matrix_io"),
    }
