"""Synthetic MIND-format fixture generator.

Produces a news.tsv / behaviors.tsv pair at desk scale: articles carry
category-themed vocabularies, and with probability `content_signal` a user's
next click stays in the last click's category (content-correlated
transitions), otherwise it is uniform over all other articles. Sessions are
spaced so that cross-session gaps always exceed the half-hour window.
"""

from __future__ import annotations

import itertools
import os
from datetime import datetime, timezone

import numpy as np

from .artifacts import write_rows
from .mind import Article

_BASE_EPOCH = int(datetime(2019, 11, 1, 6, 0, 0, tzinfo=timezone.utc).timestamp())

_CATEGORY_VOCAB = {
    "sports": [
        "league", "coach", "playoff", "goalkeeper", "tournament", "stadium",
        "striker", "season", "derby", "transfer", "injury", "champions",
        "fixture", "referee",
    ],
    "finance": [
        "market", "stocks", "earnings", "dividend", "inflation", "portfolio",
        "bonds", "yield", "trader", "banking", "budget", "forecast",
        "currency", "merger",
    ],
    "tech": [
        "software", "startup", "gadget", "silicon", "robotics", "firmware",
        "chipset", "coding", "platform", "privacy", "cloud", "algorithm",
        "device", "battery",
    ],
    "travel": [
        "airline", "resort", "itinerary", "passport", "beaches", "luggage",
        "tourism", "hotel", "voyage", "island", "landmark", "cruise",
        "backpack", "visa",
    ],
    "food": [
        "recipe", "bakery", "roast", "spices", "vegan", "kitchen", "chef",
        "flavor", "dessert", "grill", "harvest", "tasting", "sauce", "brunch",
    ],
    "music": [
        "concert", "album", "guitar", "orchestra", "vinyl", "lyrics",
        "festival", "drummer", "melody", "acoustic", "producer", "chart",
        "remix", "encore",
    ],
    "health": [
        "clinic", "vaccine", "nutrition", "therapy", "fitness", "wellness",
        "diagnosis", "patients", "surgery", "immunity", "sleep", "pharmacy",
        "recovery", "screening",
    ],
    "politics": [
        "senate", "ballot", "campaign", "policy", "congress", "governor",
        "debate", "election", "legislation", "diplomat", "mayor", "treaty",
        "veto", "coalition",
    ],
}

_FILLER_WORDS = ["today", "report", "week", "city", "people", "story", "latest", "local"]
_SUBCATEGORY_SUFFIXES = ["news", "update", "daily"]


def _pick_words(rng, vocab, count):
    return [vocab[int(rng.integers(len(vocab)))] for _ in range(count)]


def _make_articles(rng, n_articles):
    categories = list(_CATEGORY_VOCAB)
    articles = []
    for idx in range(n_articles):
        category = categories[idx % len(categories)]
        vocab = _CATEGORY_VOCAB[category]
        subcategory = "%s-%s" % (
            category,
            _SUBCATEGORY_SUFFIXES[int(rng.integers(len(_SUBCATEGORY_SUFFIXES)))],
        )
        title_words = _pick_words(rng, vocab, int(rng.integers(4, 8)))
        if rng.random() < 0.5:
            title_words.append(_FILLER_WORDS[int(rng.integers(len(_FILLER_WORDS)))])
        if rng.random() < 0.05:
            abstract = ""
        else:
            abstract_words = _pick_words(rng, vocab, int(rng.integers(8, 19)))
            for _ in range(int(rng.integers(0, 3))):
                abstract_words.append(_FILLER_WORDS[int(rng.integers(len(_FILLER_WORDS)))])
            abstract = " ".join(abstract_words)
        articles.append(Article("N%04d" % idx, category, subcategory, " ".join(title_words), abstract))
    return articles


def _next_click(rng, last_pos, articles, by_category, content_signal):
    n = len(articles)
    if rng.random() < content_signal:
        pool = by_category[articles[last_pos].category]
        if len(pool) < 2:
            return int(rng.integers(n))
        while True:
            pick = pool[int(rng.integers(len(pool)))]
            if pick != last_pos:
                return pick
    while True:
        pick = int(rng.integers(n))
        if pick != last_pos:
            return pick


def _format_time(epoch_seconds):
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.strftime("%m/%d/%Y %I:%M:%S %p")


def generate_fixture(n_users, n_articles, content_signal, seed, out_dir):
    """Write news.tsv and behaviors.tsv under out_dir; returns their paths."""
    if n_users < 2 or n_articles < 2:
        raise ValueError("need at least 2 users and 2 articles")
    if not 0.0 <= content_signal <= 1.0:
        raise ValueError("content_signal must be in [0, 1]")
    rng = np.random.default_rng(seed)
    articles = _make_articles(rng, n_articles)
    by_category: dict[str, list[int]] = {}
    for pos, art in enumerate(articles):
        by_category.setdefault(art.category, []).append(pos)

    # Per user: sessions of 2-6 clicks with in-session gaps far below the
    # window and cross-session gaps far above it. ~15% of in-session steps
    # share a timestamp with the previous click so the parsers' rank ordering
    # gets exercised.
    rows = []  # (timestamp, user, history_text, clicked positions)
    for user_idx in range(n_users):
        user = "U%03d" % user_idx
        clock = _BASE_EPOCH + int(rng.integers(0, 72 * 3600))
        clicked_history: list[str] = []
        for _ in range(int(rng.integers(3, 8))):
            session_len = int(rng.integers(2, 7))
            pos = int(rng.integers(n_articles))
            session = [(clock, pos)]
            for _ in range(session_len - 1):
                gap = 0 if rng.random() < 0.15 else int(rng.integers(30, 900))
                clock += gap
                pos = _next_click(rng, pos, articles, by_category, content_signal)
                session.append((clock, pos))
            # pack same-timestamp runs into a single impression row
            for stamp, run in itertools.groupby(session, key=lambda click: click[0]):
                clicked = [p for _, p in run]
                rows.append((stamp, user, " ".join(clicked_history[-10:]), clicked))
                clicked_history.extend(articles[p].id for p in clicked)
            clock += int(rng.integers(2 * 3600, 9 * 3600))

    rows.sort(key=lambda r: (r[0], r[1]))

    news_path = os.path.join(out_dir, "news.tsv")
    behaviors_path = os.path.join(out_dir, "behaviors.tsv")
    write_rows(news_path, articles)

    behaviors = []
    for row_idx, (timestamp, user, history_text, clicked) in enumerate(rows, start=1):
        excluded = set(clicked)
        tokens = []
        for _ in range(int(rng.integers(3, 7))):
            # bounded resampling: tiny universes may have no free article left
            for _attempt in range(50):
                noise = int(rng.integers(n_articles))
                if noise not in excluded:
                    excluded.add(noise)
                    tokens.append("%s-0" % articles[noise].id)
                    break
        # interleave: each click goes to its drawn slot, in slot order, so the
        # clicked tokens keep their sequence order among themselves
        slots = rng.choice(len(tokens) + len(clicked), size=len(clicked), replace=False).tolist()
        for slot, pos in zip(sorted(slots), clicked):
            tokens.insert(slot, "%s-1" % articles[pos].id)
        behaviors.append(("R%05d" % row_idx, user, _format_time(timestamp), history_text, " ".join(tokens)))
    write_rows(behaviors_path, behaviors)
    return news_path, behaviors_path
