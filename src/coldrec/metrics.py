"""Top-K ranking evaluation: MAP, Recall, Novelty, Diversity, and curve emission.

Every test triplet (u, i, j*) is a query with a single relevant item j*,
ranked against all articles appearing in the split (train or test side) minus
the query's last article i: the union, in order, of the two sides' article
index maps. `rank_test_queries` scores all queries of one (model, split) with
`models.score_queries`, straight from the test side's code columns, excludes
each query's own last article and ranks with one stable argsort, which breaks
ties as `predict` does. It returns integer arrays: one rank per query and one
row of top candidate positions per query. The metrics reduce those arrays,
summing in the order a per-query loop would. Results are a dict
{(model, setting, k): {metric: value}}. Novelty is the self-information of
an item's click popularity; diversity is the mean pairwise cosine distance
of a recommendation list's TF-IDF rows, computed for every K in one pass per
query, so each pair's distance is computed once, not once per K.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from .artifacts import parse_rows, read_lines, write_rows
from .errors import EmptyInputError, FormatError
from .models import FactorModel, score_queries
# perfbench/tracing.py wraps metrics.predict and metrics.cosine_distance by name
from .models import predict  # noqa: F401
from .numerics import cosine_distance
from .splits import DataSplit

METRIC_NAMES = ("map", "recall", "novelty", "diversity")
_CURVE_COLUMNS = {"model": str, "setting": str, "k": int, "metric": str, "value": float}  # metrics.csv


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sums over the last axis with the bits of a Python `total = 0.0; total += v` loop.

    np.sum adds pairwise, which moves the last bits; a cumulative sum from 0.0 does not.
    """
    start = np.zeros(values.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((start, values), axis=-1), axis=-1)[..., -1]


def _hits(ranks, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = np.asarray(ranks, dtype=np.int64)
    return ranks[(ranks >= 1) & (ranks <= k)]


def map_at_k(ranks, k: int) -> float:
    """Mean over queries of 1/rank when 1 <= rank <= k, else 0 (single relevant item).

    A rank of 0 means the relevant item was not in the candidate set.
    """
    return float(_ordered_sum(1.0 / _hits(ranks, k))) / max(1, len(ranks))


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries whose relevant item landed within the top k."""
    return len(_hits(ranks, k)) / max(1, len(ranks))


def self_information(ordered, popularity) -> np.ndarray:
    """-log2(clicks / total clicks) per article of `ordered`, the novelty of recommending it.

    Articles never clicked (popularity 0) are clamped to one click so cold
    recommendations cannot contribute infinite novelty.
    """
    total_clicks = max(1, sum(popularity.values()))
    return np.array([-math.log2(max(popularity.get(a, 0), 1) / total_clicks) for a in ordered])


def novelty_at_k(top, information, k: int) -> float:
    """Mean over queries of the mean self-information of the query's first k top positions.

    `information[p]` is that of candidate position p; an empty list contributes 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    head = np.asarray(top)[:, :k]
    per_query = _ordered_sum(information[head]) / max(1, head.shape[1])
    return float(_ordered_sum(per_query)) / max(1, len(per_query))


def diversity_at_k(top, rows, ks) -> dict:
    """{k: mean pairwise cosine distance over each query's first k top positions} for every k in `ks`.

    `rows` is a CSRMatrix of TF-IDF rows, one per candidate position. Each
    query's list is read once, to its longest k, and each pair's distance is
    computed once; every k sums its own pairs in p-major order, the bits of a
    per-k loop. Lists with fewer than two items contribute 0. Diversity is
    always computed on TF-IDF rows, even when the model was trained on
    external embeddings.
    """
    per_query = {k: [] for k in ks}
    if any(k < 1 for k in per_query):
        raise ValueError("k must be >= 1")
    top = np.asarray(top)[:, : max(per_query, default=0)]
    width = top.shape[1]
    pairs = [(p, q) for p in range(width) for q in range(p + 1, width)]  # p-major
    within = {k: [q < k for _, q in pairs] for k in per_query}  # the pairs of each k's prefix
    for head in top.tolist():
        vectors = [rows.row(p) for p in head]
        distances = [cosine_distance(vectors[p], vectors[q]) for p, q in pairs]
        for k, values in per_query.items():
            n = min(k, width)
            if n < 2:
                values.append(0.0)
                continue
            total = 0.0
            for distance in compress(distances, within[k]):
                total += distance
            values.append(total / (n * (n - 1) // 2))
    return {k: sum(values) / max(1, len(values)) for k, values in per_query.items()}


def candidate_universe(split: DataSplit) -> list[str]:
    """All articles referenced by either side, in first-appearance order."""
    return list(dict.fromkeys([*split.train.articles, *split.test.articles]))


def rank_test_queries(model: FactorModel, split: DataSplit, features, k_max: int):
    """Per test query, the rank of j* and the top-k_max positions, from one scoring kernel call.

    Returns (ordered, ranks, top). `ordered` is the candidate universe in
    predict's tie order. Each query ranks it minus its last article i, C - 1
    candidates for a universe of C, with `predict`'s scores and tie-break: i's
    negated score is set to +inf so it sorts last in its row. `ranks` holds one
    int64 per query, j*'s position plus 1, or 0 when j* is not a candidate
    (j* == i). `top` is a queries x min(k_max, C - 1) int64 array of the first
    candidates' positions in `ordered`. The universe and the test side's
    articles are checked against `features` once, before any scoring.
    """
    test = split.test
    universe = candidate_universe(split)
    ordered, chunks = score_queries(model, test.users, test.articles, test.u, test.i, universe, features)
    position = {a: p for p, a in enumerate(ordered)}
    code_position = np.array([position[a] for a in test.articles], dtype=np.int64)  # test code -> position
    own = code_position[test.i]
    targets = np.where(test.i == test.j, -1, code_position[test.j])
    ranks = np.zeros(len(test), dtype=np.int64)
    top = np.empty((len(test), min(k_max, len(ordered) - 1)), dtype=np.int64)
    for start, neg in chunks:
        rows = slice(start, start + len(neg))
        neg[np.arange(len(neg)), own[rows]] = np.inf
        order = np.argsort(neg, axis=1, kind="stable")
        hits = order == targets[rows, None]
        ranks[rows] = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, 0)
        top[rows] = order[:, : top.shape[1]]
    return ordered, ranks, top


def evaluate(model: FactorModel, split: DataSplit, features, popularity, ks, *, tfidf_features) -> dict:
    """Rank every test triplet's candidates and aggregate the four metrics per K.

    Returns {(model kind, split kind, k): {metric: value}} for every k in `ks`.
    `features` drives the model's scoring and `tfidf_features`, which must be
    TF-IDF rows, the diversity metric. Ranks and top positions come from
    `rank_test_queries`. Diversity is computed for every k in one pass over
    each query's top list, each pair's cosine distance once.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("ks must contain positive integers")
    if len(split.test) == 0:
        raise EmptyInputError("test side of the split is empty")
    if tfidf_features.kind != "tfidf":
        raise ValueError("diversity needs TF-IDF rows, got %r features" % tfidf_features.kind)
    ordered, ranks, top = rank_test_queries(model, split, features, max(ks))
    information = self_information(ordered, popularity)
    diversity = diversity_at_k(top, tfidf_features.rows(ordered), ks)
    return {
        (model.kind, split.kind, k): {
            "map": map_at_k(ranks, k),
            "recall": recall_at_k(ranks, k),
            "novelty": novelty_at_k(top, information, k),
            "diversity": diversity[k],
        }
        for k in ks
    }


def emit_curves(entries: dict, path) -> None:
    """Write `model,setting,k,metric,value` rows sorted by (model, setting, metric, k).

    Output bytes are deterministic for given `evaluate` results.
    """
    rows = sorted(
        ((model_kind, setting, int(k), metric, values[metric])
         for (model_kind, setting, k), values in entries.items() for metric in METRIC_NAMES),
        key=lambda r: (r[0], r[1], r[3], r[2]),
    )
    write_rows(path, [tuple(_CURVE_COLUMNS), *rows], sep=",")


def load_curves(path) -> dict:
    """Read an emit_curves CSV back into {(model, setting, k): {metric: value}}.

    A file with no rows after its header is a FormatError, and so is a row
    with a k below 1, a metric outside METRIC_NAMES, a NaN or infinite value
    or a negative map, recall or novelty, or a (model, setting, k, metric)
    row listed twice, each naming its line, or a (model, setting, k) that
    lacks any of the four metrics, as a truncated file leaves it; the message
    names the key and its missing metrics.
    """
    entries: dict = {}
    lines = read_lines(path)
    header = next(lines, (1, ""))[1]
    if header != ",".join(_CURVE_COLUMNS):
        raise FormatError("%s: unexpected header %r" % (path, header))
    rows = parse_rows(path, _CURVE_COLUMNS, lines, ",", key=("model", "setting", "k", "metric"))
    for lineno, (model_kind, setting, k, metric, value) in rows:
        if k < 1:
            raise FormatError("%s: line %d: k must be >= 1, got %d" % (path, lineno, k))
        if metric not in METRIC_NAMES:
            raise FormatError("%s: line %d: metric must be one of %s, got %r"
                              % (path, lineno, ", ".join(METRIC_NAMES), metric))
        if not math.isfinite(value):
            raise FormatError("%s: line %d: %s must be finite, got %r" % (path, lineno, metric, value))
        if value < 0 and metric != "diversity":  # 1 - cos of two equal rows can round below 0
            raise FormatError("%s: line %d: %s must be >= 0, got %r" % (path, lineno, metric, value))
        entries.setdefault((model_kind, setting, k), {})[metric] = value
    if not entries:
        raise FormatError("%s: no metric rows" % path)
    for (model_kind, setting, k), values in entries.items():
        missing = [m for m in METRIC_NAMES if m not in values]
        if missing:
            raise FormatError(
                "%s: %s,%s,%d lacks metric rows: %s" % (path, model_kind, setting, k, ", ".join(missing))
            )
    return entries


_SETTING_TITLES = {"warm": "Standard Evaluation", "cold": "Cold-Start Evaluation"}


def format_summary(entries: dict) -> str:
    """Aligned text table: per setting, one row per model, MAP@k / Recall@k columns,
    followed by the novelty/diversity block."""
    ks = sorted({key[2] for key in entries})
    models = sorted({key[0] for key in entries})
    settings = [s for s in ("warm", "cold") if any(key[1] == s for key in entries)]
    settings += sorted({key[1] for key in entries} - set(settings))

    def block(metric_pairs):
        headers = ["%s@%d" % (display, k) for k in ks for display, _ in metric_pairs]
        width = max(len(h) for h in headers) + 2
        lines = ["%-10s" % "Model" + "".join("%*s" % (width, h) for h in headers)]
        for setting in settings:
            lines.append(_SETTING_TITLES.get(setting, setting))
            for model_kind in models:
                cells = []
                for k in ks:
                    values = entries.get((model_kind, setting, k))
                    for _, key in metric_pairs:
                        cell = "%.4f" % values[key] if values else "-"
                        cells.append("%*s" % (width, cell))
                lines.append("%-10s" % ("  " + model_kind) + "".join(cells))
        return lines

    lines = block((("MAP", "map"), ("Recall", "recall")))
    lines.append("")
    lines += block((("Novelty", "novelty"), ("Diversity", "diversity")))
    return "\n".join(lines) + "\n"
