"""Top-K ranking evaluation: MAP, Recall, Novelty, Diversity, and curve emission.

Every test triplet (u, i, j*) is a query with a single relevant item j*,
ranked against all articles appearing in the split (train or test side) minus
the query's last article i. All queries of one (model, split) are ranked by
the batched kernel `models.rank_queries`, which breaks ties as `predict` does.
Novelty is the self-information of an item's click popularity; diversity is
the mean pairwise cosine distance of a recommendation list's TF-IDF rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError
from .models import FactorModel, rank_queries
# perfbench/tracing.py wraps metrics.predict and metrics.cosine_distance by name
from .models import predict  # noqa: F401
from .numerics import cosine_distance
from .splits import DataSplit

METRIC_NAMES = ("map", "recall", "novelty", "diversity")


@dataclass
class MetricReport:
    """Metric values keyed by (model kind, split kind, K)."""

    ks: list[int] = field(default_factory=list)
    entries: dict = field(default_factory=dict)


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
    """Per test query, the rank of j* and the top-k_max list, from one ranking kernel call.

    Each query ranks the candidate universe minus its last article i, C - 1
    candidates for a universe of C, with `predict`'s scores and tie-break.
    The rank is j*'s position plus 1, or None when j* is not a candidate
    (j* == i); the top list holds the first min(k_max, C - 1) candidates.
    The universe is checked against `features` once, before any scoring.
    """
    universe = candidate_universe(split)
    queries = list(split.test)
    ordered, chunks = rank_queries(
        model,
        [t.user for t in queries],
        [t.last_article for t in queries],
        universe,
        features,
        exclude_last=True,
    )
    position = {a: p for p, a in enumerate(ordered)}
    targets = np.array(
        [-1 if t.next_article == t.last_article else position[t.next_article] for t in queries],
        dtype=np.intp,
    )
    head = min(k_max, len(ordered) - 1)
    ranks = []
    top_lists = []
    for start, _, order in chunks:
        hits = order == targets[start : start + len(order), None]
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
    tfidf_features=None,
) -> MetricReport:
    """Rank every test triplet's candidates and aggregate the four metrics per K.

    `features` drives the model's scoring; `tfidf_features` (defaulting to
    `features` when that matrix is TF-IDF) drives the diversity metric.
    Ranks and top lists come from `rank_test_queries`.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("ks must contain positive integers")
    if len(split.test) == 0:
        raise EmptyInputError("test side of the split is empty")
    if tfidf_features is None:
        if features.kind != "tfidf":
            raise ValueError("diversity needs TF-IDF rows: pass tfidf_features")
        tfidf_features = features
    total_clicks = max(1, sum(popularity.values()))
    ranks, top_lists = rank_test_queries(model, split, features, max(ks))

    report = MetricReport(ks=ks)
    for k in ks:
        report.entries[(model.kind, split.kind, k)] = {
            "map": map_at_k(ranks, k),
            "recall": recall_at_k(ranks, k),
            "novelty": novelty_at_k(top_lists, popularity, total_clicks, k),
            "diversity": diversity_at_k(top_lists, tfidf_features, k),
        }
    return report


def merge_reports(reports) -> MetricReport:
    merged = MetricReport()
    ks: set[int] = set()
    for report in reports:
        ks.update(report.ks)
        merged.entries.update(report.entries)
    merged.ks = sorted(ks)
    return merged


def emit_curves(report: MetricReport, path) -> None:
    """Write `model,setting,k,metric,value` rows sorted by (model, setting, metric, k).

    Output bytes are deterministic for a given report.
    """
    rows = []
    for (model_kind, setting, k), values in report.entries.items():
        for metric in METRIC_NAMES:
            rows.append((model_kind, setting, metric, int(k), values[metric]))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("model,setting,k,metric,value\n")
        for model_kind, setting, metric, k, value in rows:
            fh.write("%s,%s,%d,%s,%s\n" % (model_kind, setting, k, metric, str(value)))


def load_curves(path) -> MetricReport:
    """Rebuild a MetricReport from an emit_curves CSV."""
    report = MetricReport()
    ks: set[int] = set()
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
            ks.add(k)
            report.entries.setdefault((model_kind, setting, k), {})[metric] = number
    report.ks = sorted(ks)
    return report


_SETTING_TITLES = {"warm": "Standard Evaluation", "cold": "Cold-Start Evaluation"}


def format_summary(report: MetricReport) -> str:
    """Aligned text table: per setting, one row per model, MAP@k / Recall@k columns,
    followed by the novelty/diversity block."""
    ks = report.ks
    models = sorted({key[0] for key in report.entries})
    settings = [s for s in ("warm", "cold") if any(key[1] == s for key in report.entries)]
    settings += sorted({key[1] for key in report.entries} - set(settings))

    def block(metric_pairs):
        headers = ["%s@%d" % (display, k) for k in ks for display, _ in metric_pairs]
        width = max(len(h) for h in headers) + 2
        lines = ["%-10s" % "Model" + "".join("%*s" % (width, h) for h in headers)]
        for setting in settings:
            lines.append(_SETTING_TITLES.get(setting, setting))
            for model_kind in models:
                cells = []
                for k in ks:
                    values = report.entries.get((model_kind, setting, k))
                    for _, key in metric_pairs:
                        cell = "%.4f" % values[key] if values else "-"
                        cells.append("%*s" % (width, cell))
                lines.append("%-10s" % ("  " + model_kind) + "".join(cells))
        return lines

    lines = block((("MAP", "map"), ("Recall", "recall")))
    lines.append("")
    lines += block((("Novelty", "novelty"), ("Diversity", "diversity")))
    return "\n".join(lines) + "\n"
