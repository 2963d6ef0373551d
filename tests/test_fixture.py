import hashlib

import pytest

from coldrec.fixture import generate_fixture
from coldrec.mind import parse_behaviors, parse_news, validate_clicks
from coldrec.transitions import build_tensor


def category_map(catalog):
    return {art.id: art.category for art in catalog.values()}


class TestGenerateFixture:
    def test_output_parses_cleanly(self, tmp_path):
        news_path, behaviors_path = generate_fixture(10, 30, 0.8, 1, tmp_path)
        catalog, news_report = parse_news(news_path)
        assert len(catalog) == 30
        assert news_report.rows_skipped_malformed == 0
        assert news_report.duplicates_dropped == 0
        streams, beh_report = parse_behaviors(behaviors_path)
        assert beh_report.rows_skipped_malformed == 0
        assert beh_report.tokens_skipped_malformed == 0
        assert len(streams) == 10
        validated, click_report = validate_clicks(streams, catalog)
        assert click_report.clicks_dropped_unknown_article == 0
        assert len(validated) == 10

    def test_full_signal_transitions_stay_in_category(self, tmp_path):
        news_path, behaviors_path = generate_fixture(15, 40, 1.0, 3, tmp_path)
        catalog, _ = parse_news(news_path)
        streams, _ = parse_behaviors(behaviors_path)
        categories = category_map(catalog)
        tensor = build_tensor(streams, 1800)
        assert tensor
        for (_, i, j) in tensor:
            assert categories[i] == categories[j]

    def test_zero_signal_transitions_look_independent(self, tmp_path):
        # loose sanity bound, not a sharp statistical assertion
        news_path, behaviors_path = generate_fixture(30, 80, 0.0, 5, tmp_path)
        catalog, _ = parse_news(news_path)
        streams, _ = parse_behaviors(behaviors_path)
        categories = category_map(catalog)
        tensor = build_tensor(streams, 1800)
        total = sum(tensor.values())
        same = sum(
            count
            for (_, i, j), count in tensor.items()
            if categories[i] == categories[j]
        )
        assert total > 100
        assert same / total < 0.3  # uniform expectation is ~1/8

    def test_frozen_checksums(self, tmp_path):
        news_path, behaviors_path = generate_fixture(50, 200, 0.8, 7, tmp_path)
        digests = {}
        for name, path in (("news", news_path), ("behaviors", behaviors_path)):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        assert digests["news"] == (
            "99ca2c222c3696313b1bb27969ac0c63f51dde6144e86b81b96ed89f3f5a204e"
        )
        assert digests["behaviors"] == (
            "dc245af31c4903a235305b44c0425b38a8ea80656e4685b2659de5de08a03f84"
        )

    def test_bad_parameters_raise(self, tmp_path):
        with pytest.raises(ValueError):
            generate_fixture(1, 30, 0.5, 1, tmp_path)
        with pytest.raises(ValueError):
            generate_fixture(10, 30, 1.5, 1, tmp_path)
