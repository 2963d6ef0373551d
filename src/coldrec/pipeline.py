"""Stage orchestration: ingest -> triplets -> split -> featurize -> train -> evaluate.

Each stage reads the previous stage's persisted outputs from the run
directory and persists its own, so stages rerun independently and the
single-shot pipeline (which simply calls the stages in order) is byte-for-byte
equivalent to stage-wise execution. All randomness flows from the config seed
through named substreams (split, init, negatives).
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy import sparse

from . import metrics as metrics_mod
from .artifacts import atomic_open, load_matrix, read_rows, save_matrix, write_json
from .config import RunConfig, derive_seed
from .features import FeatureMatrix, fit_tfidf, load_external_embeddings, transform
from .mind import (
    Article,
    ClickEvent,
    history_popularity,
    parse_behaviors,
    parse_news,
    validate_clicks,
)
from .models import almm_train, forbes_train, load_model, oord_train, sample_negatives, save_model
from .splits import load_split, make_cold_split, make_warm_split, save_split
from .transitions import build_tensor, build_triplets, load_triplets, save_triplets

_TRAINERS = {"almm": almm_train, "forbes": forbes_train, "oord": oord_train}

INGEST_DIR = "ingest"
SPLITS_DIR = "splits"
FEATURES_DIR = "features"
MODELS_DIR = "models"
METRICS_FILE = "metrics.csv"
RUN_LOG_FILE = "run.log"


def _path(cfg: RunConfig, *parts) -> str:
    return os.path.join(cfg.out_dir, *parts)


def metrics_path(cfg: RunConfig) -> str:
    return _path(cfg, METRICS_FILE)


# ---------------------------------------------------------------------------
# persistence helpers for stage intermediates
# ---------------------------------------------------------------------------

def save_catalog(catalog: dict[str, Article], path) -> None:
    with atomic_open(path) as fh:
        for art in catalog.values():
            fh.write(
                "%s\t%s\t%s\t%s\t%s\n"
                % (art.id, art.category, art.subcategory, art.title, art.abstract)
            )


def load_catalog(path) -> dict[str, Article]:
    catalog, report = parse_news(path)
    if report.rows_skipped_malformed or report.duplicates_dropped:
        raise ValueError("%s: persisted catalog failed to round-trip cleanly" % path)
    return catalog


def save_streams(streams: dict[str, list[ClickEvent]], path) -> None:
    with atomic_open(path) as fh:
        for events in streams.values():
            for ev in events:
                fh.write(
                    "%s\t%s\t%d\t%d\n"
                    % (ev.user, ev.news, ev.timestamp, ev.within_impression_rank)
                )


def load_streams(path) -> dict[str, list[ClickEvent]]:
    """Read streams.tsv back into user -> events, both in file order."""
    events_by_user: dict[str, list[ClickEvent]] = {}
    for lineno, (user, news, ts, rank) in read_rows(path, 4):
        try:
            timestamp, within = int(ts), int(rank)
        except ValueError:
            raise ValueError(
                "%s: line %d: timestamp and rank must be integers, got %r and %r"
                % (path, lineno, ts, rank)
            ) from None
        events_by_user.setdefault(user, []).append(
            ClickEvent(user=user, news=news, timestamp=timestamp, within_impression_rank=within)
        )
    return events_by_user


def save_popularity(popularity: dict[str, int], path) -> None:
    with atomic_open(path) as fh:
        for article in sorted(popularity):
            fh.write("%s\t%d\n" % (article, popularity[article]))


def load_popularity(path) -> dict[str, int]:
    popularity = {}
    for lineno, (article, count) in read_rows(path, 2):
        try:
            popularity[article] = int(count)
        except ValueError:
            raise ValueError(
                "%s: line %d: count must be an integer, got %r" % (path, lineno, count)
            ) from None
    return popularity


def _feature_base(cfg: RunConfig, kind: str) -> str:
    return _path(cfg, FEATURES_DIR, kind)


def save_features(features: FeatureMatrix, base: str) -> None:
    meta = {"kind": features.kind, "dim": features.dim, "ids": list(features.row_index)}
    write_json(meta, base + ".meta.json")
    if sparse.issparse(features.matrix):
        with atomic_open(base + ".npz", "wb") as fh:
            sparse.save_npz(fh, features.matrix.tocsr())
    else:
        save_matrix(features.matrix, base + ".npy")


def load_features(base: str) -> FeatureMatrix:
    with open(base + ".meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if os.path.exists(base + ".npz"):
        matrix = sparse.load_npz(base + ".npz")
    else:
        matrix = load_matrix(base + ".npy")
    row_index = {a: r for r, a in enumerate(meta["ids"])}
    return FeatureMatrix(matrix=matrix, kind=meta["kind"], row_index=row_index)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def save_messages(reports, path) -> None:
    """Write each (source, ValidationReport)'s messages, one `source: message` per line."""
    with atomic_open(path) as fh:
        for source, report in reports:
            for message in report.messages:
                fh.write("%s: %s\n" % (source, message))


def stage_ingest(cfg: RunConfig) -> dict:
    """Parse and validate the raw logs; persist catalog, streams, popularity and
    the validation messages (news, then behaviors, then clicks)."""
    out = _path(cfg, INGEST_DIR)
    catalog, news_report = parse_news(cfg.news_path)
    raw_streams, beh_report = parse_behaviors(cfg.behaviors_path)
    streams, click_report = validate_clicks(raw_streams, catalog)

    popularity = {}
    for article, count in history_popularity(cfg.behaviors_path).items():
        if article in catalog:
            popularity[article] = popularity.get(article, 0) + count
    for events in streams.values():
        for ev in events:
            popularity[ev.news] = popularity.get(ev.news, 0) + 1

    save_catalog(catalog, os.path.join(out, "catalog.tsv"))
    save_streams(streams, os.path.join(out, "streams.tsv"))
    save_popularity(popularity, os.path.join(out, "popularity.tsv"))
    save_messages(
        (("news", news_report), ("behaviors", beh_report), ("clicks", click_report)),
        os.path.join(out, "messages.txt"),
    )
    return {
        "news_rows_read": news_report.rows_read,
        "news_rows_kept": news_report.rows_kept,
        "news_rows_skipped_malformed": news_report.rows_skipped_malformed,
        "news_duplicates_dropped": news_report.duplicates_dropped,
        "behaviors_rows_read": beh_report.rows_read,
        "behaviors_rows_kept": beh_report.rows_kept,
        "behaviors_rows_skipped_malformed": beh_report.rows_skipped_malformed,
        "behaviors_tokens_skipped_malformed": beh_report.tokens_skipped_malformed,
        "clicks_dropped_unknown_article": click_report.clicks_dropped_unknown_article,
        "articles": len(catalog),
        "users_with_clicks": len(streams),
        "clicks_kept": sum(len(events) for events in streams.values()),
        "popularity_total_clicks": sum(popularity.values()),
    }


def stage_triplets(cfg: RunConfig) -> dict:
    """Build the transition tensor from persisted streams and persist the triplets."""
    streams = load_streams(_path(cfg, INGEST_DIR, "streams.tsv"))
    tensor = build_tensor(streams, cfg.window_seconds)
    triplets = build_triplets(tensor)
    save_triplets(triplets, _path(cfg, "triplets.tsv"))
    return {
        "transitions_observed": sum(tensor.values()),
        "triplets": len(triplets),
        "triplet_users": len(triplets.users),
        "triplet_articles": len(triplets.articles),
    }


def stage_split(cfg: RunConfig) -> dict:
    """Cut the configured warm/cold splits from the persisted triplets."""
    triplets = load_triplets(_path(cfg, "triplets.tsv"))
    split_seed = derive_seed(cfg.seed, "split")
    counters: dict = {}
    for kind in cfg.split_kinds:
        if kind == "cold":
            split = make_cold_split(triplets, cfg.cold_fraction, split_seed)
            fraction = cfg.cold_fraction
        else:
            split = make_warm_split(triplets, cfg.warm_fraction, split_seed)
            fraction = cfg.warm_fraction
        save_split(split, _path(cfg, SPLITS_DIR, kind), fraction)
        for side_name, side in (("train", split.train), ("test", split.test)):
            counters["split_%s_%s_users" % (kind, side_name)] = len(side.users)
            counters["split_%s_%s_items" % (kind, side_name)] = len(side.articles)
            counters["split_%s_%s_entries" % (kind, side_name)] = len(side)
        counters["split_%s_holdout_articles" % kind] = len(split.holdout_articles)
    return counters


def stage_featurize(cfg: RunConfig) -> dict:
    """Fit TF-IDF on the persisted catalog (always) and ingest external embeddings if configured."""
    catalog = load_catalog(_path(cfg, INGEST_DIR, "catalog.tsv"))
    vectorizer = fit_tfidf(catalog, cfg.vectorizer)
    tfidf = transform(vectorizer, catalog)
    save_features(tfidf, _feature_base(cfg, "tfidf"))
    counters = {"tfidf_vocabulary": tfidf.dim}
    if cfg.feature_kind == "external":
        external = load_external_embeddings(cfg.embeddings_path, catalog)
        save_features(external, _feature_base(cfg, "external"))
        counters["external_dim"] = external.dim
    return counters


def _model_features(cfg: RunConfig) -> FeatureMatrix:
    return load_features(_feature_base(cfg, cfg.feature_kind))


def _model_dir(cfg: RunConfig, model_kind: str, split_kind: str) -> str:
    return _path(cfg, MODELS_DIR, "%s-%s" % (model_kind, split_kind))


def stage_train(cfg: RunConfig) -> dict:
    """Train every configured (model, split) pair on the split's train side.

    All models of one split share the same instance set (positives plus
    negatives sampled once from the `negatives` substream).
    """
    features = _model_features(cfg)
    counters: dict = {}
    for split_kind in cfg.split_kinds:
        split = load_split(_path(cfg, SPLITS_DIR, split_kind))
        train_set = split.train
        instances = sample_negatives(
            train_set,
            cfg.hyper.negatives_per_positive,
            derive_seed(cfg.seed, "negatives"),
        )
        counters["train_%s_instances" % split_kind] = len(instances)
        # negative slots sample_negatives dropped after 100 rejections
        counters["train_%s_negatives_shortfall" % split_kind] = (
            len(train_set) * (cfg.hyper.negatives_per_positive + 1) - len(instances)
        )
        article_ids = list(train_set.articles)
        content = features.rows(article_ids)
        user_ids = list(train_set.users)
        for model_kind in cfg.model_kinds:
            model = _TRAINERS[model_kind](
                instances,
                content,
                cfg.hyper,
                user_ids=user_ids,
                article_ids=article_ids,
            )
            save_model(model, _model_dir(cfg, model_kind, split_kind))
            if model.loss_trace:
                counters["train_%s_%s_final_loss" % (model_kind, split_kind)] = model.loss_trace[-1][1]
    return counters


def stage_evaluate(cfg: RunConfig) -> dict:
    """Evaluate every trained (model, split) pair and emit metrics.csv."""
    features = _model_features(cfg)
    tfidf = features if cfg.feature_kind == "tfidf" else load_features(_feature_base(cfg, "tfidf"))
    popularity = load_popularity(_path(cfg, INGEST_DIR, "popularity.tsv"))
    entries: dict = {}
    counters: dict = {}
    for split_kind in cfg.split_kinds:
        split = load_split(_path(cfg, SPLITS_DIR, split_kind))
        # every model of a split trains on its train side, so these are per split;
        # the cold candidates are the test side's articles that train lacks
        trained, test = split.train, split.test
        counters["evaluate_%s_queries" % split_kind] = len(test)
        unseen = np.array([u not in trained.users for u in test.users], dtype=bool)
        counters["evaluate_%s_unseen_user_queries" % split_kind] = int(unseen[test.u].sum())
        counters["evaluate_%s_cold_candidates" % split_kind] = len(test.articles.keys() - trained.articles)
        for model_kind in cfg.model_kinds:
            model = load_model(_model_dir(cfg, model_kind, split_kind))
            results = metrics_mod.evaluate(
                model, split, features, popularity, cfg.ks, tfidf_features=tfidf
            )
            for (mk, sk, k), values in sorted(results.items()):
                for metric in metrics_mod.METRIC_NAMES:
                    counters["%s_%s_%s_at_%d" % (metric, mk, sk, k)] = values[metric]
            entries.update(results)
    metrics_mod.emit_curves(entries, _path(cfg, METRICS_FILE))
    counters.update(_cold_start_comparison(entries))
    return counters


def _cold_start_comparison(entries: dict) -> dict:
    """Inspection lines: does almm beat the baselines on the cold split?"""
    out: dict = {}
    ks = {k for mk, sk, k in entries if (mk, sk) == ("almm", "cold")}
    if not ks:
        return out
    k = 10 if 10 in ks else min(ks)
    almm = entries[("almm", "cold", k)]
    for metric in ("map", "recall"):
        for rival in ("forbes", "oord"):
            rival_values = entries.get((rival, "cold", k))
            if rival_values is not None:
                out["cold_almm_beats_%s_%s_at_%d" % (rival, metric, k)] = (
                    almm[metric] > rival_values[metric]
                )
    return out


_STAGES = (
    ("ingest", stage_ingest),
    ("triplets", stage_triplets),
    ("split", stage_split),
    ("featurize", stage_featurize),
    ("train", stage_train),
    ("evaluate", stage_evaluate),
)


def run_pipeline(cfg: RunConfig) -> dict:
    """Run all stages in order; write run.log with every counter; return the counters."""
    counters: dict = {"seed": cfg.seed}
    for name, stage in _STAGES:
        counters.update(stage(cfg))
    with atomic_open(_path(cfg, RUN_LOG_FILE)) as fh:
        for key, value in counters.items():
            fh.write("%s = %s\n" % (key, value))
    return counters
