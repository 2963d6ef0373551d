"""Warm-start and cold-start train/test partitioning of a triplet set.

Each side of a split is a `TripletSet` whose `users` and `articles` index
maps hold exactly the users and articles of that side's triplets. Both sides
keep the input's triplet order, except that a warm split appends to train the
test candidates it moves back.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .errors import DegenerateSplitError
from .transitions import TripletSet, load_triplets, save_triplets

MANIFEST_NAME = "manifest.json"


@dataclass
class DataSplit:
    train: TripletSet
    test: TripletSet
    holdout_articles: set[str]
    kind: str  # "warm" | "cold"
    seed: int


def make_cold_split(triplet_set: TripletSet, holdout_fraction: float, seed: int) -> DataSplit:
    """Hold out ceil(fraction * |articles|) articles; triplets touching any go to test.

    Holdout articles are sampled uniformly without replacement from the
    article index (seeded); by construction no train triplet references a
    holdout article and every test triplet references at least one.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in (0, 1), got %r" % holdout_fraction)
    if len(triplet_set) == 0:
        raise DegenerateSplitError("cannot split an empty triplet set")
    articles = list(triplet_set.articles)
    n_holdout = math.ceil(holdout_fraction * len(articles))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(articles), size=n_holdout, replace=False)
    holdout = {articles[k] for k in picked}
    train, test = [], []
    for t in triplet_set:
        if t.last_article in holdout or t.next_article in holdout:
            test.append(t)
        else:
            train.append(t)
    if not test or not train:
        raise DegenerateSplitError(
            "cold split degenerate: %d train / %d test triplets" % (len(train), len(test))
        )
    return DataSplit(
        train=TripletSet(train),
        test=TripletSet(test),
        holdout_articles=holdout,
        kind="cold",
        seed=seed,
    )


def make_warm_split(triplet_set: TripletSet, test_fraction: float, seed: int) -> DataSplit:
    """Sample triplets into test, then repair leakage so every test article is trained on.

    A sampled candidate whose last or next article is absent from the current
    train side is moved back to train (never dropped), which keeps the
    partition exact and enforces the warm invariant.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1), got %r" % test_fraction)
    if len(triplet_set) == 0:
        raise DegenerateSplitError("cannot split an empty triplet set")
    n = len(triplet_set)
    n_test = math.ceil(test_fraction * n)
    rng = np.random.default_rng(seed)
    candidate_positions = set(rng.choice(n, size=n_test, replace=False).tolist())

    train, candidates = [], []
    train_articles: set[str] = set()
    for pos, t in enumerate(triplet_set):
        if pos in candidate_positions:
            candidates.append(t)
        else:
            train.append(t)
            train_articles.add(t.last_article)
            train_articles.add(t.next_article)

    test = []
    for t in candidates:
        if t.last_article in train_articles and t.next_article in train_articles:
            test.append(t)
        else:
            train.append(t)
            train_articles.add(t.last_article)
            train_articles.add(t.next_article)
    if not test or not train:
        raise DegenerateSplitError(
            "warm split degenerate: %d train / %d test triplets" % (len(train), len(test))
        )
    return DataSplit(
        train=TripletSet(train),
        test=TripletSet(test),
        holdout_articles=set(),
        kind="warm",
        seed=seed,
    )


def save_split(split: DataSplit, dirpath, fraction: float | None = None) -> None:
    """Persist a split as two triplet TSVs plus a manifest."""
    save_triplets(split.train, os.path.join(dirpath, "train.tsv"))
    save_triplets(split.test, os.path.join(dirpath, "test.tsv"))
    manifest = {
        "kind": split.kind,
        "seed": split.seed,
        "fraction": fraction,
        "holdout_articles": sorted(split.holdout_articles),
    }
    write_json(manifest, os.path.join(dirpath, MANIFEST_NAME))


def load_split(dirpath) -> DataSplit:
    with open(os.path.join(dirpath, MANIFEST_NAME), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return DataSplit(
        train=load_triplets(os.path.join(dirpath, "train.tsv")),
        test=load_triplets(os.path.join(dirpath, "test.tsv")),
        holdout_articles=set(manifest["holdout_articles"]),
        kind=manifest["kind"],
        seed=manifest["seed"],
    )
