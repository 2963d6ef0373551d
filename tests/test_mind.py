import os
from collections import Counter

import pytest

from coldrec.mind import (
    Article,
    history_popularity,
    parse_behaviors,
    parse_news,
    validate_clicks,
)

from conftest import DATA_DIR, click_rows, clicks_of

NEWS_SMALL = os.path.join(DATA_DIR, "news_small.tsv")
BEHAVIORS_SMALL = os.path.join(DATA_DIR, "behaviors_small.tsv")


def news_of(clicks, user):
    return clicks.news[clicks.user == user].tolist()


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


class TestParseNews:
    def test_duplicate_id_first_wins(self, tmp_path):
        path = tmp_path / "news.tsv"
        write_tsv(
            path,
            [
                ("N1", "a", "b", "first title", "x", "u"),
                ("N2", "a", "b", "t2", "x", "u"),
                ("N1", "a", "b", "second title", "x", "u"),
            ],
        )
        catalog, report = parse_news(path)
        assert len(catalog) == 2
        assert report.duplicates_dropped == 1
        assert catalog["N1"].title == "first title"

    def test_empty_id_row_skipped(self, tmp_path):
        path = tmp_path / "news.tsv"
        write_tsv(path, [("", "a", "b", "t", "x", "u"), ("N1", "a", "b", "t", "x", "u")])
        catalog, report = parse_news(path)
        assert len(catalog) == 1
        assert report.rows_skipped_malformed == 1

    def test_short_row_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "news.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("N1\tcat\tsub\n")
            fh.write("N2\tcat\tsub\ttitle\tabstract\n")
        catalog, report = parse_news(path)
        assert len(catalog) == 1
        assert report.rows_skipped_malformed == 1

    def test_url_column_not_retained(self, tmp_path):
        path = tmp_path / "news.tsv"
        write_tsv(path, [("N1", "a", "b", "t", "x", "http://example.com")])
        catalog, _ = parse_news(path)
        art = catalog["N1"]
        assert not any("example.com" in str(v) for v in art)

    def test_bundled_fixture_catalog_size(self):
        catalog, report = parse_news(NEWS_SMALL)
        assert len(catalog) == 10
        assert report.duplicates_dropped == 1
        assert report.rows_skipped_malformed == 1
        assert report.rows_read == 12

    def test_conservation(self):
        _, report = parse_news(NEWS_SMALL)
        assert report.rows_read == (
            report.rows_kept + report.rows_skipped_malformed + report.duplicates_dropped
        )

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            parse_news(tmp_path / "nope.tsv")


class TestParseBehaviors:
    def test_click_suffix_rule(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_tsv(path, [("B1", "U1", "11/11/2019 9:00:00 AM", "", "N1-1 N2-0 N3-1")])
        clicks, _, _ = parse_behaviors(path)
        assert clicks.user.tolist() == ["U1", "U1"]
        assert list(zip(clicks.news.tolist(), clicks.rank.tolist())) == [("N1", 0), ("N3", 1)]
        assert clicks.timestamp[0] == clicks.timestamp[1]

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_tsv(
            path,
            [
                ("B1", "U1", "11/11/2019 9:01:40 AM", "", "N1-1"),
                ("B2", "U1", "11/11/2019 9:00:50 AM", "", "N2-1"),
            ],
        )
        clicks, _, _ = parse_behaviors(path)
        assert news_of(clicks, "U1") == ["N2", "N1"]

    def test_bundled_fixture_counts(self):
        clicks, history, report = parse_behaviors(BEHAVIORS_SMALL)
        assert len(set(clicks.user.tolist())) == 3
        assert history == {"N1": 1, "N2": 3, "N3": 1, "N7": 1}
        # independent oracle: brute-force count of `-1` tokens in the raw file
        expected_clicks = 0
        with open(BEHAVIORS_SMALL, encoding="utf-8") as fh:
            for line in fh:
                impressions = line.rstrip("\n").split("\t")[4]
                expected_clicks += sum(1 for tok in impressions.split() if tok.endswith("-1"))
        assert expected_clicks == 11  # hand count stored beside the fixture
        assert len(clicks.news) == expected_clicks
        assert report.rows_read == 8
        assert report.rows_kept == 8

    def test_bundled_fixture_stream_order(self):
        clicks, _, _ = parse_behaviors(BEHAVIORS_SMALL)
        # U1's 8:45 click sorts before the 9:00 impression pair
        assert news_of(clicks, "U1") == ["N5", "N1", "N3", "N4"]
        # ranks break the tie inside the 9:30 impression for U2
        assert news_of(clicks, "U2") == ["N2", "N6", "N7", "N98"]

    def test_unparseable_timestamp_skips_row(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_tsv(
            path,
            [
                ("B1", "U1", "not a time", "", "N1-1"),
                ("B2", "U1", "11/11/2019 9:00:00 AM", "", "N2-1"),
            ],
        )
        clicks, _, report = parse_behaviors(path)
        assert report.rows_skipped_malformed == 1
        assert len(clicks.news) == 1

    def test_bad_token_skipped_and_counted(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_tsv(path, [("B1", "U1", "11/11/2019 9:00:00 AM", "", "N1-1 garbage N2-9 N3-0")])
        clicks, _, report = parse_behaviors(path)
        assert report.tokens_skipped_malformed == 2
        assert len(clicks.news) == 1

    def test_empty_user_id_skips_row(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_tsv(
            path,
            [
                ("B1", "", "11/11/2019 9:00:00 AM", "N1", "N2-1 N3-1"),
                ("B2", "U1", "11/11/2019 9:05:00 AM", "N5", "N4-1"),
            ],
        )
        clicks, history, report = parse_behaviors(path)
        assert click_rows(clicks) == [("U1", "N4", 1573463100, 0)]
        assert history == {"N5": 1}
        assert report.rows_kept == 1
        assert report.rows_skipped_malformed == 1
        assert report.messages == ["line 1: empty user id"]

    def test_history_tallied_over_kept_rows_only(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_tsv(
            path,
            [
                ("B1", "U1", "not a time", "N1 N1 N1", "N2-1"),
                ("B2", "U1", "11/11/2019 9:00:00 AM", "N3"),
                ("B3", "U1", "1/1/1970 12:00:00 AM", "N4", "N2-1"),
                ("B4", "U2", "11/11/2019 9:00:00 AM", "N2 N5 N2", "N6-1"),
                ("B5", "U2", "11/11/2019 9:05:00 AM", "", "N2-0"),
            ],
        )
        _, history, report = parse_behaviors(path)
        assert history == {"N2": 2, "N5": 1}
        assert report.rows_skipped_malformed == 3

    def test_conservation(self):
        _, _, report = parse_behaviors(BEHAVIORS_SMALL)
        assert report.rows_read == report.rows_kept + report.rows_skipped_malformed

    def test_streams_strictly_ordered(self):
        rows = click_rows(parse_behaviors(BEHAVIORS_SMALL)[0])
        users = [user for user, *_ in rows]
        assert users == sorted(users, key=users.index)  # each user's rows are contiguous
        for user in set(users):
            keys = [(ts, rank) for u, _, ts, rank in rows if u == user]
            assert keys == sorted(keys)


class TestValidateClicks:
    def _catalog(self, *ids):
        return {i: Article(i, "c", "s", "t", "a") for i in ids}

    def _stream(self, user, *news_ids):
        return clicks_of([(user, n, 100 + k, 0) for k, n in enumerate(news_ids)])

    def test_unknown_article_dropped(self):
        clicks, report = validate_clicks(
            self._stream("U1", "N1", "N_missing"), self._catalog("N1")
        )
        assert click_rows(clicks) == [("U1", "N1", 100, 0)]
        assert report.clicks_dropped_unknown_article == 1

    def test_all_known_is_identity(self):
        inputs = self._stream("U1", "N1", "N2")
        clicks, report = validate_clicks(inputs, self._catalog("N1", "N2"))
        assert click_rows(clicks) == click_rows(inputs)
        assert report.clicks_dropped_unknown_article == 0

    def test_emptied_user_dropped(self):
        clicks, _ = validate_clicks(self._stream("U1", "N_missing"), self._catalog("N1"))
        assert click_rows(clicks) == []

    def test_planted_unknown_ids_in_fixture(self):
        catalog, _ = parse_news(NEWS_SMALL)
        raw, _, _ = parse_behaviors(BEHAVIORS_SMALL)
        _, report = validate_clicks(raw, catalog)
        assert report.clicks_dropped_unknown_article == 2

    def test_idempotent(self):
        catalog, _ = parse_news(NEWS_SMALL)
        raw, _, _ = parse_behaviors(BEHAVIORS_SMALL)
        once, _ = validate_clicks(raw, catalog)
        twice, report = validate_clicks(once, catalog)
        assert report.clicks_dropped_unknown_article == 0
        assert click_rows(twice) == click_rows(once)


class TestHistoryPopularity:
    def test_catalog_history_plus_kept_clicks(self):
        catalog = {i: Article(i, "c", "s", "t", "a") for i in ("N1", "N2", "N3")}
        history = Counter({"N1": 2, "N9": 4, "N3": 1})
        clicks = clicks_of([("U1", "N1", 100, 0), ("U1", "N2", 100, 1), ("U2", "N1", 200, 0)])
        assert history_popularity(history, catalog, clicks) == {"N1": 4, "N2": 1, "N3": 1}

    def test_bundled_fixture(self):
        catalog, _ = parse_news(NEWS_SMALL)
        raw, history, _ = parse_behaviors(BEHAVIORS_SMALL)
        clicks, _ = validate_clicks(raw, catalog)
        popularity = history_popularity(history, catalog, clicks)
        # history {N1: 1, N2: 3, N3: 1, N7: 1} plus the 9 clicks on catalog articles
        assert popularity == {"N1": 2, "N2": 4, "N3": 2, "N4": 1, "N5": 1, "N6": 1, "N7": 2, "N8": 1, "N9": 1}
