"""Top-K ranking evaluation: MAP, Recall, Novelty, Diversity, and curve emission.

Every test triplet (u, i, j*) is a query with a single relevant item j*,
ranked against all articles appearing in the split (train or test side) minus
the query's last article i. All queries of one (model, split) are scored by
the batched kernel `models.score_queries`; `rank_test_queries` excludes each
query's own last article and ranks with one stable argsort, which breaks ties
as `predict` does. Results are a dict {(model, setting, k): {metric: value}}.
Novelty is the self-information of an item's click popularity; diversity is
the mean pairwise cosine distance of a recommendation list's TF-IDF rows.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import atomic_open
from .errors import EmptyInputError
from .models import FactorModel, score_queries
# perfbench/tracing.py wraps metrics.predict and metrics.cosine_distance by name
from .models import predict  # noqa: F401
from .numerics import cosine_distance
from .splits import DataSplit

METRIC_NAMES = ("map", "recall", "novelty", "diversity")


def map_at_k(ranks, k: int) -> float:
    """Mean over queries of 1/rank when rank <= k, else 0 (single relevant item).

    A rank of None means the relevant item was not in the candidate set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = list(ranks)
    if not ranks:
        return 0.0
    total = 0.0
    for rank in ranks:
        if rank is not None and rank <= k:
            total += 1.0 / rank
    return total / len(ranks)


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries whose relevant item landed within the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranks = list(ranks)
    if not ranks:
        return 0.0
    hits = sum(1 for rank in ranks if rank is not None and rank <= k)
    return hits / len(ranks)


def novelty_at_k(top_lists, popularity, total_clicks: int, k: int) -> float:
    """Mean self-information -log2(pop/total) over each query's top-k list.

    Articles never clicked (popularity 0) are clamped to one click so cold
    recommendations cannot contribute infinite novelty.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if total_clicks < 1:
        raise ValueError("total_clicks must be >= 1")
    per_query = []
    for items in top_lists:
        head = items[:k]
        if not head:
            per_query.append(0.0)
            continue
        total = 0.0
        for article in head:
            clicks = max(popularity.get(article, 0), 1)
            total += -math.log2(clicks / total_clicks)
        per_query.append(total / len(head))
    if not per_query:
        return 0.0
    return sum(per_query) / len(per_query)


def diversity_at_k(top_lists, tfidf_features, k: int) -> float:
    """Mean pairwise cosine distance over each query's top-k TF-IDF rows.

    Lists with fewer than two items contribute 0. Diversity is always computed
    on TF-IDF rows, even when the model was trained on external embeddings.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query = []
    for items in top_lists:
        head = items[:k]
        if len(head) < 2:
            per_query.append(0.0)
            continue
        rows = [tfidf_features.row(article) for article in head]
        total = 0.0
        pairs = 0
        for p in range(len(rows)):
            for q in range(p + 1, len(rows)):
                total += cosine_distance(rows[p], rows[q])
                pairs += 1
        per_query.append(total / pairs)
    if not per_query:
        return 0.0
    return sum(per_query) / len(per_query)


def candidate_universe(split: DataSplit) -> list[str]:
    """All articles referenced by either side, in first-appearance order."""
    seen: dict[str, None] = {}
    for side in (split.train, split.test):
        for t in side:
            seen.setdefault(t.last_article, None)
            seen.setdefault(t.next_article, None)
    return list(seen)


def rank_test_queries(model: FactorModel, split: DataSplit, features, k_max: int):
    """Per test query, the rank of j* and the top-k_max list, from one scoring kernel call.

    Each query ranks the candidate universe minus its last article i, C - 1
    candidates for a universe of C, with `predict`'s scores and tie-break: i's
    negated score is set to +inf so it sorts last in its row. The rank is j*'s
    position plus 1, or None when j* is not a candidate (j* == i); the top
    list holds the first min(k_max, C - 1) candidates. The universe is checked
    against `features` once, before any scoring.
    """
    universe = candidate_universe(split)
    queries = list(split.test)
    ordered, chunks = score_queries(
        model,
        [t.user for t in queries],
        [t.last_article for t in queries],
        universe,
        features,
    )
    position = {a: p for p, a in enumerate(ordered)}
    own = np.array([position[t.last_article] for t in queries], dtype=np.intp)
    targets = np.array(
        [-1 if t.next_article == t.last_article else position[t.next_article] for t in queries],
        dtype=np.intp,
    )
    head = min(k_max, len(ordered) - 1)
    ranks = []
    top_lists = []
    for start, neg in chunks:
        rows = slice(start, start + len(neg))
        neg[np.arange(len(neg)), own[rows]] = np.inf
        order = np.argsort(neg, axis=1, kind="stable")
        hits = order == targets[rows, None]
        found = hits.any(axis=1).tolist()
        at = hits.argmax(axis=1).tolist()
        ranks.extend(p + 1 if ok else None for p, ok in zip(at, found))
        top_lists.extend([ordered[p] for p in row] for row in order[:, :head].tolist())
    return ranks, top_lists


def evaluate(
    model: FactorModel,
    split: DataSplit,
    features,
    popularity,
    ks,
    *,
    tfidf_features,
) -> dict:
    """Rank every test triplet's candidates and aggregate the four metrics per K.

    Returns {(model kind, split kind, k): {metric: value}} for every k in `ks`.
    `features` drives the model's scoring and `tfidf_features`, which must be
    TF-IDF rows, the diversity metric. Ranks and top lists come from
    `rank_test_queries`.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("ks must contain positive integers")
    if len(split.test) == 0:
        raise EmptyInputError("test side of the split is empty")
    if tfidf_features.kind != "tfidf":
        raise ValueError("diversity needs TF-IDF rows, got %r features" % tfidf_features.kind)
    total_clicks = max(1, sum(popularity.values()))
    ranks, top_lists = rank_test_queries(model, split, features, max(ks))
    return {
        (model.kind, split.kind, k): {
            "map": map_at_k(ranks, k),
            "recall": recall_at_k(ranks, k),
            "novelty": novelty_at_k(top_lists, popularity, total_clicks, k),
            "diversity": diversity_at_k(top_lists, tfidf_features, k),
        }
        for k in ks
    }


def emit_curves(entries: dict, path) -> None:
    """Write `model,setting,k,metric,value` rows sorted by (model, setting, metric, k).

    Output bytes are deterministic for given `evaluate` results.
    """
    rows = []
    for (model_kind, setting, k), values in entries.items():
        for metric in METRIC_NAMES:
            rows.append((model_kind, setting, metric, int(k), values[metric]))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with atomic_open(path) as fh:
        fh.write("model,setting,k,metric,value\n")
        for model_kind, setting, metric, k, value in rows:
            fh.write("%s,%s,%d,%s,%s\n" % (model_kind, setting, k, metric, str(value)))


def load_curves(path) -> dict:
    """Read an emit_curves CSV back into {(model, setting, k): {metric: value}}.

    A file with no rows after its header is a ValueError, and so is a
    (model, setting, k) that lacks any of the four metrics, as a truncated
    file leaves it; the message names the key and its missing metrics.
    """
    entries: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "model,setting,k,metric,value":
            raise ValueError("%s: unexpected header %r" % (path, header))
        for lineno, line in enumerate(fh, start=2):
            cols = line.rstrip("\n").split(",")
            if len(cols) != 5:
                raise ValueError("%s: line %d: expected 5 columns" % (path, lineno))
            model_kind, setting, k_text, metric, value = cols
            try:
                k, number = int(k_text), float(value)
            except ValueError:
                raise ValueError(
                    "%s: line %d: k must be an integer and value a number, got %r and %r"
                    % (path, lineno, k_text, value)
                ) from None
            entries.setdefault((model_kind, setting, k), {})[metric] = number
    if not entries:
        raise ValueError("%s: no metric rows" % path)
    for (model_kind, setting, k), values in entries.items():
        missing = [m for m in METRIC_NAMES if m not in values]
        if missing:
            raise ValueError(
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
