"""Stage orchestration: ingest -> triplets -> split -> featurize -> train -> evaluate.

Each stage reads the previous stage's persisted outputs from the run
directory and persists its own, so stages rerun independently and the
single-shot pipeline (which simply calls the stages in order) is byte-for-byte
equivalent to stage-wise execution. All randomness flows from the config seed
through named substreams (split, init, negatives).
"""

from __future__ import annotations

import os

import numpy as np

from . import metrics as metrics_mod
from .artifacts import (id_positions, load_csr, load_matrix, read_json, read_rows, save_csr, save_matrix,
                        write_json, write_rows)
from .config import RunConfig, derive_seed
from .errors import FormatError
from .features import FeatureMatrix, fit_tfidf, load_external_embeddings, transform
from .mind import Article, Clicks, group_clicks, history_popularity, parse_behaviors, parse_news, validate_clicks
from .models import MANIFEST_NAME as MODEL_MANIFEST
from .models import (FactorModel, almm_train, forbes_train, load_model, oord_train, sample_negatives,
                     save_model)
from .numerics import CSRMatrix
from .splits import MANIFEST_NAME as SPLIT_MANIFEST
from .splits import DataSplit, load_split, make_cold_split, make_warm_split, save_split
from .transitions import build_tensor, build_triplets, load_triplets

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

def load_catalog(path) -> dict[str, Article]:
    """Read catalog.tsv; an empty or repeated article id is a FormatError naming the path and line."""
    catalog: dict[str, Article] = {}
    for lineno, fields in read_rows(path, dict.fromkeys(Article._fields, str)):
        article = Article(*fields)
        if not article.id:
            raise FormatError("%s: line %d: empty article id" % (path, lineno))
        if article.id in catalog:
            raise FormatError("%s: line %d: article %s is listed twice" % (path, lineno, article.id))
        catalog[article.id] = article
    return catalog


def load_streams(path) -> Clicks:
    """Read streams.tsv back into click streams: users in order of first appearance, each
    user's rows in file order. A non-positive timestamp, a negative rank or a user's row
    out of (timestamp, rank) order is a FormatError naming the path and line, as a
    malformed line is."""
    last: dict[str, tuple[int, int]] = {}  # user -> (timestamp, rank) of its latest row
    user, news, timestamp, rank = [], [], [], []
    columns = dict(zip(Clicks._fields, (str, str, int, int)))
    for lineno, (row_user, row_news, ts, row_rank) in read_rows(path, columns):
        key = (ts, row_rank)
        if max(key) >= 2**63:  # the columns are int64
            raise FormatError("%s: line %d: timestamp and rank must be below 2**63, got %d and %d"
                              % (path, lineno, *key))
        if key[0] <= 0 or key[1] < 0:
            raise FormatError("%s: line %d: timestamp must be > 0 and rank >= 0, got %d and %d"
                              % (path, lineno, *key))
        if key < last.setdefault(row_user, key):
            raise FormatError("%s: line %d: user %s's events are out of (timestamp, rank) order"
                              % (path, lineno, row_user))
        last[row_user] = key
        user.append(row_user)
        news.append(row_news)
        timestamp.append(ts)
        rank.append(row_rank)
    return group_clicks(last, user, news, timestamp, rank)


def load_popularity(path) -> dict[str, int]:
    """Read popularity.tsv; a count that is not an integer >= 0, or an article
    listed twice, is a FormatError naming the path and line."""
    popularity = {}
    for lineno, (article, clicks) in read_rows(path, {"article": str, "count": int}):
        if clicks < 0:
            raise FormatError("%s: line %d: count must be >= 0, got %d" % (path, lineno, clicks))
        if article in popularity:
            raise FormatError("%s: line %d: article %s is listed twice" % (path, lineno, article))
        popularity[article] = clicks
    return popularity


def _feature_base(cfg: RunConfig, kind: str) -> str:
    return _path(cfg, FEATURES_DIR, kind)


def save_features(features: FeatureMatrix, base: str) -> None:
    meta = {"kind": features.kind, "dim": features.dim, "ids": list(features.row_index)}
    write_json(meta, base + ".meta.json")
    if isinstance(features.matrix, CSRMatrix):
        save_csr(features.matrix, base + ".npz")
    else:
        save_matrix(features.matrix, base + ".npy")


def load_features(base: str) -> FeatureMatrix:
    """Read what save_features wrote; a malformed meta file, a matrix whose shape
    contradicts it, tfidf rows in a dense `.npy`, or a NaN or infinite feature
    value is a FormatError naming the path."""
    meta_path = base + ".meta.json"
    meta = read_json(meta_path)
    try:
        kind, dim, ids = meta["kind"], meta["dim"], meta["ids"]
    except (KeyError, TypeError) as exc:
        raise FormatError("%s: malformed meta file: %r" % (meta_path, exc)) from None
    row_index = id_positions(ids, meta_path, "ids")
    path = base + ".npz"
    if os.path.exists(path):
        matrix = load_csr(path)
    else:
        path = base + ".npy"
        matrix = load_matrix(path)
        if kind == "tfidf":  # TF-IDF rows are sparse; diversity reads them as a CSRMatrix
            raise FormatError("%s: tfidf features must be a csr .npz archive" % path)
    expected = (len(ids), dim)
    if tuple(matrix.shape) != expected:
        raise FormatError(
            "%s: shape %s contradicts %s (%d ids, dim %r)" % (path, tuple(matrix.shape), meta_path, *expected)
        )
    values = matrix.data if isinstance(matrix, CSRMatrix) else matrix
    if not np.isfinite(values).all():
        raise FormatError("%s: non-finite feature values" % path)
    return FeatureMatrix(matrix=matrix, kind=kind, row_index=row_index)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_ingest(cfg: RunConfig) -> dict:
    """Parse and validate the raw logs; persist catalog, streams, popularity and
    the validation messages (news, then behaviors, then clicks)."""
    out = _path(cfg, INGEST_DIR)
    catalog, news_report = parse_news(cfg.news_path)
    raw_clicks, history, beh_report = parse_behaviors(cfg.behaviors_path)
    clicks, click_report = validate_clicks(raw_clicks, catalog)
    popularity = history_popularity(history, catalog, clicks)

    write_rows(os.path.join(out, "catalog.tsv"), catalog.values())
    write_rows(os.path.join(out, "streams.tsv"), zip(*(column.tolist() for column in clicks)))
    write_rows(os.path.join(out, "popularity.tsv"), sorted(popularity.items()))
    reports = (("news", news_report), ("behaviors", beh_report), ("clicks", click_report))
    write_rows(os.path.join(out, "messages.txt"),
               ((source, message) for source, report in reports for message in report.messages), sep=": ")
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
        "users_with_clicks": len(set(clicks.user.tolist())),
        "clicks_kept": len(clicks.news),
        "popularity_total_clicks": sum(popularity.values()),
    }


def stage_triplets(cfg: RunConfig) -> dict:
    """Build the transition tensor from persisted streams and persist the triplets."""
    clicks = load_streams(_path(cfg, INGEST_DIR, "streams.tsv"))
    tensor = build_tensor(clicks, cfg.window_seconds)
    triplets = build_triplets(tensor)
    write_rows(_path(cfg, "triplets.tsv"), triplets)
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


def _of_kind(artifact, kind: str, manifest_path: str):
    """`artifact` if its manifest names `kind`, the kind of the directory the stage asked for; a
    split or model copied in from another kind's directory is a FormatError naming the manifest."""
    if artifact.kind != kind:
        raise FormatError("%s: kind must be %r for this directory, got %r"
                          % (manifest_path, kind, artifact.kind))
    return artifact


def _load_split(cfg: RunConfig, split_kind: str) -> DataSplit:
    dirpath = _path(cfg, SPLITS_DIR, split_kind)
    return _of_kind(load_split(dirpath), split_kind, os.path.join(dirpath, SPLIT_MANIFEST))


def _load_model(cfg: RunConfig, model_kind: str, split_kind: str) -> FactorModel:
    dirpath = _model_dir(cfg, model_kind, split_kind)
    return _of_kind(load_model(dirpath), model_kind, os.path.join(dirpath, MODEL_MANIFEST))


def stage_train(cfg: RunConfig) -> dict:
    """Train every configured (model, split) pair on the split's train side.

    All models of one split share the same instance set (positives plus
    negatives sampled once from the `negatives` substream).
    """
    features = _model_features(cfg)
    counters: dict = {}
    for split_kind in cfg.split_kinds:
        split = _load_split(cfg, split_kind)
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
        content = features.rows(instances.articles)
        for model_kind in cfg.model_kinds:
            model = _TRAINERS[model_kind](instances, content, cfg.hyper)
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
        split = _load_split(cfg, split_kind)
        # every model of a split trains on its train side, so these are per split;
        # the cold candidates are the test side's articles that train lacks
        trained, test = split.train, split.test
        counters["evaluate_%s_queries" % split_kind] = len(test)
        unseen = np.array([u not in trained.users for u in test.users], dtype=bool)
        counters["evaluate_%s_unseen_user_queries" % split_kind] = int(unseen[test.u].sum())
        counters["evaluate_%s_cold_candidates" % split_kind] = len(test.articles.keys() - trained.articles)
        for model_kind in cfg.model_kinds:
            model = _load_model(cfg, model_kind, split_kind)
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
    write_rows(_path(cfg, RUN_LOG_FILE), counters.items(), sep=" = ")
    return counters
