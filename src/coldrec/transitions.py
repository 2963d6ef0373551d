"""Transition counts and confidence-weighted triplet construction.

A transition (u, i, j) is counted when article j was clicked immediately
after article i by user u, the gap between the two clicks is at most the
session window (default 1800 s, boundary inclusive), and i != j. The counts
form a sparse tensor, a plain `dict[(user, last, next), int]` in order of
first occurrence. Each distinct (u, i, j) becomes one training triplet whose
confidence is 1.0 + 0.1 * (count of that (i, j) move summed over all users).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInputError
from .mind import ClickEvent

DEFAULT_WINDOW_SECONDS = 1800


@dataclass(frozen=True)
class Triplet:
    user: str
    last_article: str
    next_article: str
    confidence: float


class TripletSet:
    """Triplets plus dense index maps for users and articles.

    Index maps are bijections onto 0..n-1 assigned in first-appearance order
    over the triplet sequence (last article before next article within each
    triplet), so a persisted and reloaded set reproduces identical indices.
    """

    def __init__(self, triplets):
        self.triplets: list[Triplet] = list(triplets)
        self.users: dict[str, int] = {}
        self.articles: dict[str, int] = {}
        for t in self.triplets:
            self.users.setdefault(t.user, len(self.users))
            self.articles.setdefault(t.last_article, len(self.articles))
            self.articles.setdefault(t.next_article, len(self.articles))

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self):
        return iter(self.triplets)


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
    triplets = [
        Triplet(
            user=user,
            last_article=last,
            next_article=nxt,
            confidence=1.0 + 0.1 * global_counts[(last, nxt)],
        )
        for (user, last, nxt) in tensor
    ]
    return TripletSet(triplets)


def save_triplets(triplet_set: TripletSet, path) -> None:
    """Dump one `user<TAB>i<TAB>j<TAB>confidence` line per triplet."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for t in triplet_set:
            fh.write(
                "%s\t%s\t%s\t%s\n" % (t.user, t.last_article, t.next_article, repr(t.confidence))
            )


def load_triplets(path) -> TripletSet:
    triplets = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 4:
                raise ValueError("%s: line %d: expected 4 columns" % (path, lineno))
            try:
                confidence = float(cols[3])
            except ValueError:
                raise ValueError(
                    "%s: line %d: confidence must be a number, got %r" % (path, lineno, cols[3])
                ) from None
            if not 0.0 < confidence < math.inf:
                raise ValueError(
                    "%s: line %d: confidence must be finite and > 0, got %s" % (path, lineno, cols[3])
                )
            triplets.append(
                Triplet(user=cols[0], last_article=cols[1], next_article=cols[2], confidence=confidence)
            )
    return TripletSet(triplets)
