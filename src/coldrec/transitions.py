"""Transition counts and confidence-weighted triplet construction.

A transition (u, i, j) is counted when article j was clicked immediately
after article i by user u, the gap between the two clicks is at most the
session window (default 1800 s, boundary inclusive), and i != j. The counts
form a sparse tensor, a plain `dict[(user, last, next), int]` in order of
first occurrence. Each distinct (u, i, j) becomes one training triplet whose
confidence is 1.0 + 0.1 * (count of that (i, j) move summed over all users).

A `TripletSet` encodes its rows once, into int64 code columns `u`, `i`, `j`
over its `users` / `articles` index maps plus a float64 `confidence` column;
consumers read the columns, and only iteration decodes `Triplet` rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .artifacts import atomic_open, read_rows
from .errors import EmptyInputError
from .mind import ClickEvent

DEFAULT_WINDOW_SECONDS = 1800


class Triplet(NamedTuple):
    user: str
    last_article: str
    next_article: str
    confidence: float


class TripletSet:
    """Triplets as aligned columns plus dense index maps for users and articles.

    Index maps are bijections onto 0..n-1 assigned in first-appearance order
    over the triplet sequence (last article before next article within each
    triplet), so a persisted and reloaded set reproduces identical indices.
    Row k is (users[u[k]], articles[i[k]], articles[j[k]], confidence[k]).
    """

    def __init__(self, rows=()):
        """Encode (user, last article, next article, confidence) rows, in order."""
        self.users: dict[str, int] = {}
        self.articles: dict[str, int] = {}
        users, articles, codes, confidence = self.users, self.articles, [], []
        for user, last, nxt, conf in rows:
            u = users.setdefault(user, len(users))
            i = articles.setdefault(last, len(articles))  # last before next: first-appearance order
            codes.append((u, i, articles.setdefault(nxt, len(articles))))
            confidence.append(conf)
        self.u, self.i, self.j = np.array(codes, dtype=np.int64).reshape(-1, 3).T.copy()
        self.confidence = np.array(confidence, dtype=np.float64)

    def take(self, positions) -> TripletSet:
        """The rows at `positions`, in that order, with index maps rebuilt for them alone."""
        side = TripletSet()
        side.u, side.users = _reindex(self.u[positions], self.users)
        pairs, side.articles = _reindex(np.column_stack((self.i, self.j))[positions], self.articles)
        side.i, side.j = pairs.T.copy()
        side.confidence = self.confidence[positions]
        return side

    def __len__(self) -> int:
        return len(self.confidence)

    def __iter__(self):
        users, articles = list(self.users), list(self.articles)
        rows = zip(self.u.tolist(), self.i.tolist(), self.j.tolist(), self.confidence.tolist())
        return (Triplet(users[u], articles[i], articles[j], conf) for u, i, j, conf in rows)


def _reindex(codes: np.ndarray, index: dict[str, int]):
    """Renumber `codes` 0..n-1 in first-appearance order (row-major); returns (codes, index map)."""
    kept = list(dict.fromkeys(codes.ravel().tolist()))
    renumber = np.zeros(len(index), dtype=np.int64)
    renumber[kept] = np.arange(len(kept))
    names = list(index)
    return renumber[codes], {names[c]: n for n, c in enumerate(kept)}


def build_tensor(
    streams: dict[str, list[ClickEvent]], window_seconds: int = DEFAULT_WINDOW_SECONDS
) -> dict[tuple[str, str, str], int]:
    """Count qualifying consecutive click pairs for every user.

    Returns (user, last article, next article) -> count, keys in order of
    first occurrence: users in stream order, then click order. Equal
    timestamps (clicks inside one impression) have gap 0 and qualify, ordered
    by within-impression rank. Self-transitions and pairs exceeding the window
    contribute nothing but do not break the stream.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive, got %r" % window_seconds)
    tensor: dict[tuple[str, str, str], int] = {}
    for user, events in streams.items():
        for prev, cur in zip(events, events[1:]):
            if cur.timestamp - prev.timestamp > window_seconds:
                continue
            if prev.news == cur.news:
                continue
            key = (user, prev.news, cur.news)
            tensor[key] = tensor.get(key, 0) + 1
    return tensor


def build_triplets(tensor: dict[tuple[str, str, str], int]) -> TripletSet:
    """One triplet per (user, last, next) tensor key, in key order,
    confidence-weighted by the global (last, next) count."""
    if not tensor:
        raise EmptyInputError("transition tensor is empty")
    global_counts: dict[tuple[str, str], int] = {}
    for (_, last, nxt), count in tensor.items():
        pair = (last, nxt)
        global_counts[pair] = global_counts.get(pair, 0) + count
    return TripletSet(
        (user, last, nxt, 1.0 + 0.1 * global_counts[(last, nxt)]) for (user, last, nxt) in tensor
    )


def save_triplets(triplet_set: TripletSet, path) -> None:
    """Dump one `user<TAB>i<TAB>j<TAB>confidence` line per triplet, confidence by repr."""
    with atomic_open(path) as fh:
        for t in triplet_set:
            fh.write("%s\t%s\t%s\t%r\n" % t)


def load_triplets(path) -> TripletSet:
    rows = []
    for lineno, (user, last, nxt, text) in read_rows(path, 4):
        try:
            confidence = float(text)
        except ValueError:
            raise ValueError(
                "%s: line %d: confidence must be a number, got %r" % (path, lineno, text)
            ) from None
        if not 0.0 < confidence < math.inf:
            raise ValueError(
                "%s: line %d: confidence must be finite and > 0, got %s" % (path, lineno, text)
            )
        rows.append((user, last, nxt, confidence))
    return TripletSet(rows)
