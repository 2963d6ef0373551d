"""Benchmark workloads and their seeded input generators.

Every input is a pure function of (workload, seed). The click log comes from
`coldrec.fixture.generate_fixture` with a fixed seed, CLICK_SEED, which also
seeds the pipeline. The seed draws the article content: the fixture's text for
the same articles, or text from a wider lexicon (wide_vocab), and a dense
embedding file (many_queries). The amount of work is thus the same from seed
to seed: a seeded click log moves the number of test queries at these sizes
by up to a third. Generation is never timed.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

# Hyperparameters of configs/fixture.toml, kept here so that a config change
# elsewhere in the repository cannot silently change what the benchmark runs.
_MODEL_SECTION = {
    "latent_dim": 16,
    "reg_user": 0.1,
    "reg_last": 0.1,
    "reg_next": 0.1,
    "reg_mapping": 1.0,
    "refresh_blend": 1.0,
    "negatives": 4,
    "iterations": 10,
    "sgd_lr": 0.01,
    "sgd_decay": 0.9,
    "sgd_epochs": 15,
}


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    articles: int
    models: tuple[str, ...]
    features: str  # "tfidf" or "external"
    max_vocab: int = 5000
    lexicon: int = 0  # > 0: rewrite article text from a seeded lexicon this wide
    embedding_dim: int = 0  # > 0: write dense external embeddings of this width
    iterations: int = _MODEL_SECTION["iterations"]  # ALS sweeps of almm and oord
    ks: tuple[int, ...] = (5, 10, 20)

    @property
    def pairs(self) -> int:
        return 2 * len(self.models)


ALL_MODELS = ("almm", "forbes", "oord")
# Probability that a fixture user's next click stays in the last click's category.
SIGNAL = 0.8
CLICK_SEED = 0

WORKLOADS = {
    w.name: w
    for w in (
        # The representative mix: all trainers, both splits, fixture lexicon.
        Workload("mid", users=16, articles=100, models=ALL_MODELS, features="tfidf"),
        # Ranking-bound and SGD-free: the most test queries, each ranking
        # hundreds of candidates, over dense content rows; no forbes, and four
        # ALS sweeps, so that evaluate outweighs train. Only K = 10 is
        # evaluated, so that ranking (`predict`) is not dwarfed by the
        # diversity metric, whose cost grows with K squared.
        Workload(
            "many_queries",
            users=80,
            articles=360,
            models=("almm", "oord"),
            features="external",
            embedding_dim=64,
            iterations=4,
            ks=(10,),
        ),
        # Content width: a lexicon wider than the TF-IDF cap, so m is the cap.
        Workload(
            "wide_vocab",
            users=8,
            articles=140,
            models=ALL_MODELS,
            features="tfidf",
            max_vocab=1152,
            lexicon=1664,
        ),
    )
}


def _config_text(w: Workload, seed: int) -> str:
    lines = [
        "seed = %d" % seed,
        "[data]",
        'news = "data/news.tsv"',
        'behaviors = "data/behaviors.tsv"',
    ]
    if w.features == "external":
        lines.append('embeddings = "data/embeddings.txt"')
    lines += [
        "[transitions]",
        "window_seconds = 1800",
        "[split]",
        'kind = "both"',
        "cold_fraction = 0.1",
        "warm_fraction = 0.2",
        "[features]",
        'kind = "%s"' % w.features,
        "max_vocab = %d" % w.max_vocab,
        "min_token_len = 2",
        "stopwords = true",
        "[model]",
        'kind = "all"',  # child.py narrows this to the workload's models
    ]
    model = dict(_MODEL_SECTION, iterations=w.iterations)
    lines += ["%s = %r" % kv for kv in model.items()]
    lines += ["[eval]", "ks = %r" % list(w.ks), "[output]", 'dir = "out"', ""]
    return "\n".join(lines)


def _pseudo_words(rng: np.random.Generator, count: int) -> list[str]:
    """`count` distinct lowercase words of 3-4 consonant-vowel syllables."""
    consonants = list("bdfgklmnprstvz")
    vowels = list("aeiou")
    words: set[str] = set()
    out = []
    while len(out) < count:
        n_syll = int(rng.integers(3, 5))
        word = "".join(
            consonants[int(rng.integers(len(consonants)))] + vowels[int(rng.integers(len(vowels)))]
            for _ in range(n_syll)
        )
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def _read_news(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh]


def _rewrite_text(news_path: str, lexicon_size: int, rng: np.random.Generator) -> None:
    """Replace titles and abstracts with words from a per-category slice of the lexicon.

    Each category owns an equal slice; every word is dealt to at least one
    article of its category, so the catalog uses the whole lexicon and the
    TF-IDF width is min(lexicon, max_vocab). The remaining words are drawn
    with a skew towards the head of the slice, as topical words recur in news
    text, which keeps a content signal for the cold-start mappings.
    """
    rows = _read_news(news_path)
    categories = sorted({r[1] for r in rows})
    lexicon = _pseudo_words(rng, lexicon_size)
    slices = {c: lexicon[k :: len(categories)] for k, c in enumerate(categories)}
    members: dict[str, list[int]] = {}
    for pos, r in enumerate(rows):
        members.setdefault(r[1], []).append(pos)
    dealt: dict[int, list[str]] = {pos: [] for pos in range(len(rows))}
    for c, words in slices.items():
        for k, word in enumerate(words):
            dealt[members[c][k % len(members[c])]].append(word)
    for pos, r in enumerate(rows):
        words = slices[r[1]]
        skewed = (rng.random(int(rng.integers(20, 31))) ** 3 * len(words)).astype(int)
        drawn = [words[k] for k in skewed]
        text = dealt[pos] + drawn
        rng.shuffle(text)
        cut = int(rng.integers(5, 9))
        r[3] = " ".join(text[:cut])
        r[4] = " ".join(text[cut:])
    with open(news_path, "w", encoding="utf-8", newline="") as fh:
        for r in rows:
            fh.write("\t".join(r) + "\n")


def _write_embeddings(news_path: str, out_path: str, dim: int, rng: np.random.Generator) -> None:
    """Dense vectors: a per-category centroid plus unit-variance article noise."""
    rows = _read_news(news_path)
    categories = sorted({r[1] for r in rows})
    centroids = {c: rng.normal(0.0, 1.0, size=dim) for c in categories}
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#dim %d\n" % dim)
        for r in rows:
            vec = centroids[r[1]] + rng.normal(0.0, 1.0, size=dim)
            fh.write("%s\t%s\n" % (r[0], " ".join("%.9g" % v for v in vec)))


def generate_inputs(w: Workload, seed: int, workdir: str) -> str:
    """Write the workload's data files and run config under workdir; returns the config path."""
    from coldrec.fixture import generate_fixture

    data = os.path.join(workdir, "data")
    news_path, _ = generate_fixture(w.users, w.articles, SIGNAL, CLICK_SEED, data)
    rng = np.random.default_rng([seed, 1])
    if w.lexicon:
        _rewrite_text(news_path, w.lexicon, rng)
    else:
        # The fixture writes article text before clicks, and its article ids
        # and categories do not depend on the seed: its news.tsv from `seed`
        # is the same catalog with other text.
        text_dir = os.path.join(workdir, "text")
        seeded_news, _ = generate_fixture(2, w.articles, SIGNAL, seed, text_dir)
        os.replace(seeded_news, news_path)
        shutil.rmtree(text_dir)
    if w.embedding_dim:
        _write_embeddings(news_path, os.path.join(data, "embeddings.txt"), w.embedding_dim, rng)
    config_path = os.path.join(workdir, "run.toml")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(_config_text(w, CLICK_SEED))
    return config_path
