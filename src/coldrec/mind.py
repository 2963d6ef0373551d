"""Parsers and validators for MIND-format news and behaviors logs.

Both files are UTF-8 TSVs without a header row. news.tsv carries
(id, category, subcategory, title, abstract, url, ...); behaviors.tsv carries
(impression id, user id, time, history, impressions) where the impressions
column is space-separated `newsID-0` / `newsID-1` tokens. Timestamps use the
MIND `M/D/YYYY H:MM:SS AM/PM` convention and are parsed as UTC epoch seconds.
behaviors.tsv is read once, by `parse_behaviors`: one row rule decides which
rows yield clicks and whose history ids are tallied for popularity.

A catalog is a `dict[str, Article]`: news id -> article, in file order. An
`Article` is a NamedTuple of the five kept columns, so a catalog's values are rows.
Click streams are a `Clicks` record of aligned numpy columns, one row per
click: `user` and `news` ids, `timestamp` and `rank` (the click's position
among its impression's clicked tokens). Rows are grouped by user, users in the
order of their first kept behaviors row whether or not that row holds a click,
and each user's rows are sorted by (timestamp, rank) with ties in file order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .artifacts import read_lines

_TIME_FORMAT = "%m/%d/%Y %I:%M:%S %p"
_MAX_MESSAGES = 20


class Article(NamedTuple):
    id: str
    category: str
    subcategory: str
    title: str
    abstract: str


class Clicks(NamedTuple):
    """Click streams as aligned columns: object arrays of ids, int64 arrays of numbers."""

    user: np.ndarray
    news: np.ndarray
    timestamp: np.ndarray
    rank: np.ndarray


def group_clicks(user_order, user: list, news: list, timestamp: list, rank: list) -> Clicks:
    """`Clicks` from per-click lists: rows grouped by user in the order of the distinct
    ids `user_order`, each user's rows sorted by (timestamp, rank) with ties in list order."""
    position = {u: k for k, u in enumerate(user_order)}
    code = np.fromiter(map(position.__getitem__, user), np.int64, len(user))
    timestamp, rank = np.array(timestamp, dtype=np.int64), np.array(rank, dtype=np.int64)
    order = np.lexsort((rank, timestamp, code))  # stable: equal keys keep list order
    ids = np.array(list(position), dtype=object)
    return Clicks(ids[code[order]], np.array(news, dtype=object)[order], timestamp[order], rank[order])


@dataclass
class ValidationReport:
    rows_read: int = 0
    rows_kept: int = 0
    rows_skipped_malformed: int = 0
    duplicates_dropped: int = 0
    clicks_dropped_unknown_article: int = 0
    tokens_skipped_malformed: int = 0
    messages: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(message)


def parse_news(path) -> tuple[dict[str, Article], ValidationReport]:
    """Parse news.tsv into a catalog.

    Rows with fewer than 5 columns or an empty id are skipped and counted as
    malformed; on a duplicate id the first occurrence wins. The url column and
    anything after it are discarded.
    """
    catalog: dict[str, Article] = {}
    report = ValidationReport()
    for lineno, line in read_lines(path):
        report.rows_read += 1
        cols = line.split("\t")
        if len(cols) < 5 or not cols[0]:
            report.rows_skipped_malformed += 1
            report.note("line %d: malformed news row" % lineno)
            continue
        if cols[0] in catalog:
            report.duplicates_dropped += 1
            report.note("line %d: duplicate article id %s" % (lineno, cols[0]))
            continue
        catalog[cols[0]] = Article(*cols[:5])
        report.rows_kept += 1
    return catalog, report


def _parse_time(text: str) -> int:
    stamp = datetime.strptime(text.strip(), _TIME_FORMAT)
    return int(stamp.replace(tzinfo=timezone.utc).timestamp())


def parse_behaviors(path) -> tuple[Clicks, Counter, ValidationReport]:
    """Parse behaviors.tsv, its only reader, into click streams and a history tally.

    Each `newsID-1` token in the impressions column becomes a click at the
    impression timestamp, ranked by its position among that row's clicked
    tokens. The history column carries no per-click timestamps and yields no
    clicks; its ids are tallied into the returned Counter instead (see
    history_popularity). Rows with fewer than 5 columns, an empty user id or
    an unparseable or non-positive timestamp are skipped and counted, and
    neither their clicks nor their history count; impression tokens without
    a -0/-1 suffix are skipped and counted.
    """
    report = ValidationReport()
    users: dict[str, None] = {}  # in order of first kept row
    user, news, timestamp, rank = [], [], [], []
    history: Counter[str] = Counter()
    for lineno, line in read_lines(path):
        report.rows_read += 1
        cols = line.split("\t")
        if len(cols) < 5:
            report.rows_skipped_malformed += 1
            report.note("line %d: malformed behaviors row" % lineno)
            continue
        row_user, time_text, impressions = cols[1], cols[2], cols[4]
        if not row_user:
            report.rows_skipped_malformed += 1
            report.note("line %d: empty user id" % lineno)
            continue
        try:
            row_time = _parse_time(time_text)
        except ValueError:
            report.rows_skipped_malformed += 1
            report.note("line %d: unparseable timestamp %r" % (lineno, time_text))
            continue
        if row_time <= 0:
            report.rows_skipped_malformed += 1
            report.note("line %d: non-positive timestamp" % lineno)
            continue
        report.rows_kept += 1
        users.setdefault(row_user)
        history.update(cols[3].split())
        clicked_rank = 0
        for token in impressions.split():
            news_id, sep, label = token.rpartition("-")
            if not sep or not news_id or label not in ("0", "1"):
                report.tokens_skipped_malformed += 1
                report.note("line %d: bad impression token %r" % (lineno, token))
                continue
            if label == "1":
                user.append(row_user)
                news.append(news_id)
                timestamp.append(row_time)
                rank.append(clicked_rank)
                clicked_rank += 1
    return group_clicks(users, user, news, timestamp, rank), history, report


def validate_clicks(clicks: Clicks, catalog: dict[str, Article]) -> tuple[Clicks, ValidationReport]:
    """Drop clicks whose article is absent from the catalog; a user left with none
    drops out. The kept rows keep their order."""
    report = ValidationReport()
    known = np.array([news in catalog for news in clicks.news.tolist()], dtype=bool)
    for user, dropped in Counter(clicks.user[~known].tolist()).items():
        report.clicks_dropped_unknown_article += dropped
        report.note("user %s: dropped %d click(s) on unknown articles" % (user, dropped))
    return Clicks(*(column[known] for column in clicks)), report


def history_popularity(history: Counter, catalog: dict[str, Article], clicks: Clicks) -> Counter:
    """Article popularity for the novelty metric: each catalog article's count in
    the history tally of parse_behaviors (kept rows only) plus its kept clicks."""
    popularity = Counter({article: count for article, count in history.items() if article in catalog})
    popularity.update(clicks.news.tolist())
    return popularity
