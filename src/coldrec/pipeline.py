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
from .artifacts import (ID, RUN_FILES, file_name, id_positions, load_csr, load_matrix, read_manifest, read_rows,
                        run_path, save_csr, save_matrix, write_json, write_rows)
from .config import FEATURE_KINDS, RunConfig, derive_seed
from .errors import FormatError
from .features import FeatureMatrix, fit_tfidf, load_external_embeddings, transform
from .mind import Article, Clicks, group_clicks, history_popularity, parse_behaviors, parse_news, validate_clicks
from .models import almm_train, forbes_train, load_model, oord_train, sample_negatives, save_model
from .numerics import CSRMatrix
from .splits import load_split, make_cold_split, make_warm_split, save_split
from .transitions import build_tensor, build_triplets, load_triplets

_TRAINERS = {"almm": almm_train, "forbes": forbes_train, "oord": oord_train}

# the run directory's top-level directories and run.log, as perfbench builds paths from them
INGEST_DIR, SPLITS_DIR, FEATURES_DIR, MODELS_DIR = (
    RUN_FILES[name].path.split("/")[0] for name in ("catalog", "split_manifest", "tfidf_meta", "model_manifest")
)
RUN_LOG_FILE = RUN_FILES["run_log"].path
# A features file is its base, `features/<kind>`, plus a suffix from the table: every kind's meta file
# takes TF-IDF's, sparse rows (TF-IDF's) an `.npz` and dense rows (external embeddings) an `.npy`.
_META, _SPARSE, _DENSE = (
    "." + file_name(name).split(".", 1)[1] for name in ("tfidf_meta", "tfidf_rows", "external_rows")
)


def metrics_path(cfg: RunConfig) -> str:
    return run_path(cfg.out_dir, "metrics")


def _dir(cfg: RunConfig, name: str, **fields) -> str:
    """The directory of RUN_FILES[name] in the run directory: the one its loader is given."""
    return os.path.dirname(run_path(cfg.out_dir, name, **fields))


# ---------------------------------------------------------------------------
# persistence helpers for stage intermediates
# ---------------------------------------------------------------------------

def load_catalog(path) -> dict[str, Article]:
    """Read catalog.tsv; an empty or repeated article id is a FormatError naming the path and line."""
    columns = {**dict.fromkeys(Article._fields, str), "id": ID}
    return {fields[0]: Article(*fields) for _, fields in read_rows(path, columns, key=("id",))}


def load_streams(path) -> Clicks:
    """Read streams.tsv back into click streams: users in order of first appearance, each
    user's rows in file order. An empty user or article id, a non-positive timestamp, a
    negative rank or a user's row out of (timestamp, rank) order is a FormatError naming
    the path and line, as a malformed line is."""
    last: dict[str, tuple[int, int]] = {}  # user -> (timestamp, rank) of its latest row
    user, news, timestamp, rank = [], [], [], []
    columns = dict(zip(Clicks._fields, (ID, ID, int, int)))
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
    """Read popularity.tsv; a count that is not an integer >= 0, an empty article id
    or an article listed twice is a FormatError naming the path and line."""
    popularity = {}
    for lineno, (article, clicks) in read_rows(path, {"article": ID, "count": int}, key=("article",)):
        if clicks < 0:
            raise FormatError("%s: line %d: count must be >= 0, got %d" % (path, lineno, clicks))
        popularity[article] = clicks
    return popularity


def save_features(features: FeatureMatrix, base: str) -> None:
    meta = {"kind": features.kind, "dim": features.dim, "ids": list(features.row_index)}
    write_json(meta, base + _META)
    if isinstance(features.matrix, CSRMatrix):
        save_csr(features.matrix, base + _SPARSE)
    else:
        save_matrix(features.matrix, base + _DENSE)


def load_features(base: str, kind: str | None = None) -> FeatureMatrix:
    """Read what save_features wrote; a meta file that read_manifest rejects (its kind, when
    given, is the kind the caller expects), a matrix whose shape contradicts it, tfidf rows in a
    dense `.npy`, or a NaN or infinite feature value is a FormatError naming the path."""
    meta_path = base + _META
    meta = read_manifest(meta_path, {"dim": int, "ids": id_positions}, FEATURE_KINDS, kind)
    kind, dim, row_index = meta["kind"], meta["dim"], meta["ids"]
    path = base + _SPARSE
    if os.path.exists(path):
        matrix = load_csr(path)
    else:
        path = base + _DENSE
        matrix = load_matrix(path)
        if kind == "tfidf":  # TF-IDF rows are sparse; diversity reads them as a CSRMatrix
            raise FormatError("%s: tfidf features must be a csr .npz archive" % path)
    expected = (len(row_index), dim)
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
    catalog, news_report = parse_news(cfg.news_path)
    raw_clicks, history, beh_report = parse_behaviors(cfg.behaviors_path)
    clicks, click_report = validate_clicks(raw_clicks, catalog)
    popularity = history_popularity(history, catalog, clicks)

    write_rows(run_path(cfg.out_dir, "catalog"), catalog.values())
    write_rows(run_path(cfg.out_dir, "streams"), zip(*(column.tolist() for column in clicks)))
    write_rows(run_path(cfg.out_dir, "popularity"), sorted(popularity.items()))
    reports = (("news", news_report), ("behaviors", beh_report), ("clicks", click_report))
    write_rows(run_path(cfg.out_dir, "messages"),
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
    clicks = load_streams(run_path(cfg.out_dir, "streams"))
    tensor = build_tensor(clicks, cfg.window_seconds)
    triplets = build_triplets(tensor)
    write_rows(run_path(cfg.out_dir, "triplets"), triplets)
    return {
        "transitions_observed": sum(tensor.values()),
        "triplets": len(triplets),
        "triplet_users": len(triplets.users),
        "triplet_articles": len(triplets.articles),
    }


def stage_split(cfg: RunConfig) -> dict:
    """Cut the configured warm/cold splits from the persisted triplets."""
    triplets = load_triplets(run_path(cfg.out_dir, "triplets"))
    split_seed = derive_seed(cfg.seed, "split")
    counters: dict = {}
    for kind in cfg.split_kinds:
        if kind == "cold":
            split = make_cold_split(triplets, cfg.cold_fraction, split_seed)
            fraction = cfg.cold_fraction
        else:
            split = make_warm_split(triplets, cfg.warm_fraction, split_seed)
            fraction = cfg.warm_fraction
        save_split(split, _dir(cfg, "split_manifest", split=kind), fraction)
        for side_name, side in (("train", split.train), ("test", split.test)):
            counters["split_%s_%s_users" % (kind, side_name)] = len(side.users)
            counters["split_%s_%s_items" % (kind, side_name)] = len(side.articles)
            counters["split_%s_%s_entries" % (kind, side_name)] = len(side)
        counters["split_%s_holdout_articles" % kind] = len(split.holdout_articles)
    return counters


def stage_featurize(cfg: RunConfig) -> dict:
    """Fit TF-IDF on the persisted catalog (always) and ingest external embeddings if configured."""
    catalog = load_catalog(run_path(cfg.out_dir, "catalog"))
    vectorizer = fit_tfidf(catalog, cfg.vectorizer)
    tfidf = transform(vectorizer, catalog)
    save_features(tfidf, os.path.join(cfg.out_dir, FEATURES_DIR, tfidf.kind))
    counters = {"tfidf_vocabulary": tfidf.dim}
    if cfg.feature_kind == "external":
        external = load_external_embeddings(cfg.embeddings_path, catalog)
        save_features(external, os.path.join(cfg.out_dir, FEATURES_DIR, external.kind))
        counters["external_dim"] = external.dim
    return counters


def stage_train(cfg: RunConfig) -> dict:
    """Train every configured (model, split) pair on the split's train side.

    All models of one split share the same instance set (positives plus
    negatives sampled once from the `negatives` substream).
    """
    features = load_features(os.path.join(cfg.out_dir, FEATURES_DIR, cfg.feature_kind), cfg.feature_kind)
    counters: dict = {}
    for split_kind in cfg.split_kinds:
        split = load_split(_dir(cfg, "split_manifest", split=split_kind), split_kind)
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
            save_model(model, _dir(cfg, "model_manifest", model=model_kind, split=split_kind))
            if model.loss_trace:
                counters["train_%s_%s_final_loss" % (model_kind, split_kind)] = model.loss_trace[-1][1]
    return counters


def stage_evaluate(cfg: RunConfig) -> dict:
    """Evaluate every trained (model, split) pair and emit metrics.csv."""
    features_dir = os.path.join(cfg.out_dir, FEATURES_DIR)
    features = load_features(os.path.join(features_dir, cfg.feature_kind), cfg.feature_kind)
    tfidf = features if cfg.feature_kind == "tfidf" else load_features(os.path.join(features_dir, "tfidf"), "tfidf")
    popularity_path = run_path(cfg.out_dir, "popularity")
    popularity = load_popularity(popularity_path)
    entries: dict = {}
    counters: dict = {}
    for split_kind in cfg.split_kinds:
        split = load_split(_dir(cfg, "split_manifest", split=split_kind), split_kind)
        unlisted = (split.train.articles.keys() | split.test.articles.keys()) - popularity.keys()
        if unlisted:  # every triplet article has clicks, so popularity.tsv lists it
            raise FormatError("%s: missing %d article id(s) of the %s split: %s"
                              % (popularity_path, len(unlisted), split_kind, ", ".join(sorted(unlisted))))
        # every model of a split trains on its train side, so these are per split;
        # the cold candidates are the test side's articles that train lacks
        trained, test = split.train, split.test
        counters["evaluate_%s_queries" % split_kind] = len(test)
        unseen = np.array([u not in trained.users for u in test.users], dtype=bool)
        counters["evaluate_%s_unseen_user_queries" % split_kind] = int(unseen[test.u].sum())
        counters["evaluate_%s_cold_candidates" % split_kind] = len(test.articles.keys() - trained.articles)
        for model_kind in cfg.model_kinds:
            model = load_model(_dir(cfg, "model_manifest", model=model_kind, split=split_kind), model_kind)
            results = metrics_mod.evaluate(
                model, split, features, popularity, cfg.ks, tfidf_features=tfidf
            )
            for (mk, sk, k), values in sorted(results.items()):
                for metric in metrics_mod.METRIC_NAMES:
                    counters["%s_%s_%s_at_%d" % (metric, mk, sk, k)] = values[metric]
            entries.update(results)
    metrics_mod.emit_curves(entries, metrics_path(cfg))
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
    write_rows(run_path(cfg.out_dir, "run_log"), counters.items(), sep=" = ")
    return counters
