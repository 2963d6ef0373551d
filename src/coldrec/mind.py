"""Parsers and validators for MIND-format news and behaviors logs.

Both files are UTF-8 TSVs without a header row. news.tsv carries
(id, category, subcategory, title, abstract, url, ...); behaviors.tsv carries
(impression id, user id, time, history, impressions) where the impressions
column is space-separated `newsID-0` / `newsID-1` tokens. Timestamps use the
MIND `M/D/YYYY H:MM:SS AM/PM` convention and are parsed as UTC epoch seconds.

A catalog is a `dict[str, Article]`: news id -> article, in file order.
Click streams are a `dict[str, list[ClickEvent]]`: user -> events, users in
order of first appearance, each user's events sorted by (timestamp,
within-impression rank) with ties kept in file order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

_TIME_FORMAT = "%m/%d/%Y %I:%M:%S %p"
_MAX_MESSAGES = 20


@dataclass(frozen=True)
class Article:
    id: str
    category: str
    subcategory: str
    title: str
    abstract: str


@dataclass(frozen=True)
class ClickEvent:
    user: str
    news: str
    timestamp: int
    within_impression_rank: int


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
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
            catalog[cols[0]] = Article(
                id=cols[0],
                category=cols[1],
                subcategory=cols[2],
                title=cols[3],
                abstract=cols[4],
            )
            report.rows_kept += 1
    return catalog, report


def _parse_time(text: str) -> int:
    stamp = datetime.strptime(text.strip(), _TIME_FORMAT)
    return int(stamp.replace(tzinfo=timezone.utc).timestamp())


def parse_behaviors(path) -> tuple[dict[str, list[ClickEvent]], ValidationReport]:
    """Parse behaviors.tsv into click streams.

    Each `newsID-1` token in the impressions column becomes a ClickEvent at
    the impression timestamp, ranked by its position among that row's clicked
    tokens; a user whose kept rows hold no click maps to an empty list. The
    history column carries no per-click timestamps and yields no events (see
    history_popularity for its tally). Rows with an unparseable timestamp or
    fewer than 5 columns are skipped and counted; impression tokens without a
    -0/-1 suffix are skipped and counted.
    """
    report = ValidationReport()
    events_by_user: dict[str, list[ClickEvent]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            report.rows_read += 1
            cols = line.split("\t")
            if len(cols) < 5:
                report.rows_skipped_malformed += 1
                report.note("line %d: malformed behaviors row" % lineno)
                continue
            user, time_text, impressions = cols[1], cols[2], cols[4]
            try:
                timestamp = _parse_time(time_text)
            except ValueError:
                report.rows_skipped_malformed += 1
                report.note("line %d: unparseable timestamp %r" % (lineno, time_text))
                continue
            if timestamp <= 0:
                report.rows_skipped_malformed += 1
                report.note("line %d: non-positive timestamp" % lineno)
                continue
            report.rows_kept += 1
            clicked_rank = 0
            bucket = events_by_user.setdefault(user, [])
            for token in impressions.split():
                news_id, sep, label = token.rpartition("-")
                if not sep or not news_id or label not in ("0", "1"):
                    report.tokens_skipped_malformed += 1
                    report.note("line %d: bad impression token %r" % (lineno, token))
                    continue
                if label == "1":
                    bucket.append(
                        ClickEvent(
                            user=user,
                            news=news_id,
                            timestamp=timestamp,
                            within_impression_rank=clicked_rank,
                        )
                    )
                    clicked_rank += 1
    for events in events_by_user.values():
        events.sort(key=lambda ev: (ev.timestamp, ev.within_impression_rank))
    return events_by_user, report


def validate_clicks(
    streams: dict[str, list[ClickEvent]], catalog: dict[str, Article]
) -> tuple[dict[str, list[ClickEvent]], ValidationReport]:
    """Drop click events whose article is absent from the catalog; drop emptied users.

    The returned click streams keep the input's user and event order.
    """
    report = ValidationReport()
    kept_streams: dict[str, list[ClickEvent]] = {}
    for user, events in streams.items():
        kept = [ev for ev in events if ev.news in catalog]
        dropped = len(events) - len(kept)
        if dropped:
            report.clicks_dropped_unknown_article += dropped
            report.note("user %s: dropped %d click(s) on unknown articles" % (user, dropped))
        if kept:
            kept_streams[user] = kept
    return kept_streams, report


def history_popularity(path) -> dict[str, int]:
    """Tally history-column article ids across behaviors.tsv.

    History clicks carry no timestamps, so they never enter transition
    building, but they count toward the popularity statistics consumed by the
    novelty metric.
    """
    counts: Counter[str] = Counter()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            if len(cols) < 4:
                continue
            counts.update(cols[3].split())
    return dict(counts)
