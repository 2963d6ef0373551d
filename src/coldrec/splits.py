"""Warm-start and cold-start train/test partitioning of a triplet set.

Each side of a split is the input `TripletSet`'s `take` of its rows, so its
`users` and `articles` index maps hold exactly that side's users and articles
and its code columns are renumbered to match. Both sides keep the input's row
order, except that a warm split appends to train the candidates it moves back.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import file_name, id_positions, read_manifest, write_json, write_rows
from .errors import DegenerateSplitError, FormatError
from .transitions import TripletSet, load_triplets

SPLIT_KINDS = ("warm", "cold")
_MANIFEST_FIELDS = {"seed": int, "fraction": float, "holdout_articles": id_positions}


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
    held = np.isin(triplet_set.i, picked) | np.isin(triplet_set.j, picked)
    train = triplet_set.take(np.flatnonzero(~held))
    test = triplet_set.take(np.flatnonzero(held))
    if not len(test) or not len(train):
        raise DegenerateSplitError(
            "cold split degenerate: %d train / %d test triplets" % (len(train), len(test))
        )
    holdout = {articles[k] for k in picked.tolist()}
    return DataSplit(train=train, test=test, holdout_articles=holdout, kind="cold", seed=seed)


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
    rng = np.random.default_rng(seed)
    sampled = np.zeros(n, dtype=bool)
    sampled[rng.choice(n, size=math.ceil(test_fraction * n), replace=False)] = True
    trained = np.zeros(len(triplet_set.articles), dtype=bool)  # per article code
    trained[triplet_set.i[~sampled]] = trained[triplet_set.j[~sampled]] = True
    candidates = np.flatnonzero(sampled)
    stays = []  # per candidate, in position order: both articles trained on before it
    for i, j in zip(triplet_set.i[candidates].tolist(), triplet_set.j[candidates].tolist()):
        stays.append(bool(trained[i] and trained[j]))
        trained[i] = trained[j] = True
    stays = np.array(stays, dtype=bool)
    train = triplet_set.take(np.concatenate((np.flatnonzero(~sampled), candidates[~stays])))
    test = triplet_set.take(candidates[stays])
    if not len(test) or not len(train):
        raise DegenerateSplitError(
            "warm split degenerate: %d train / %d test triplets" % (len(train), len(test))
        )
    return DataSplit(train=train, test=test, holdout_articles=set(), kind="warm", seed=seed)


def save_split(split: DataSplit, dirpath, fraction: float) -> None:
    """Persist a split as two triplet TSVs plus a manifest that records the split's fraction."""
    write_rows(os.path.join(dirpath, file_name("split_train")), split.train)
    write_rows(os.path.join(dirpath, file_name("split_test")), split.test)
    manifest = {
        "kind": split.kind,
        "seed": split.seed,
        "fraction": fraction,
        "holdout_articles": sorted(split.holdout_articles),
    }
    write_json(manifest, os.path.join(dirpath, file_name("split_manifest")))


def load_split(dirpath, kind: str | None = None) -> DataSplit:
    """Read a split directory; a manifest that read_manifest rejects (its kind, when given, is the
    kind the caller expects), or a side that breaks the split's invariant (see the split makers),
    is a FormatError naming the file: train.tsv when it lacks a test article or holds a holdout one."""
    manifest_path = os.path.join(dirpath, file_name("split_manifest"))
    manifest = read_manifest(manifest_path, _MANIFEST_FIELDS, SPLIT_KINDS, kind)
    kind, seed, holdout = manifest["kind"], manifest["seed"], set(manifest["holdout_articles"])
    if kind == "warm" and holdout:
        raise FormatError("%s: a warm split holds out no articles, got %s"
                          % (manifest_path, ", ".join(sorted(holdout))))
    train_path = os.path.join(dirpath, file_name("split_train"))
    train, test = load_triplets(train_path), load_triplets(os.path.join(dirpath, file_name("split_test")))
    if kind == "cold":
        stray, problem = holdout & train.articles.keys(), "holdout articles on the train side"
    else:
        stray, problem = test.articles.keys() - train.articles.keys(), "test articles not trained on"
    if stray:
        raise FormatError("%s: %s split: %s: %s" % (train_path, kind, problem, ", ".join(sorted(stray))))
    if kind == "cold":
        held = np.zeros(len(test.articles), dtype=bool)
        held[[code for a, code in test.articles.items() if a in holdout]] = True
        untouched = np.flatnonzero(~(held[test.i] | held[test.j]))
        if untouched.size:
            raise FormatError("%s: cold split: line %d of %s touches no holdout article"
                              % (manifest_path, untouched[0] + 1, file_name("split_test")))
    return DataSplit(train=train, test=test, holdout_articles=holdout, kind=kind, seed=seed)
