import pytest

from coldrec.config import RunConfig
from coldrec.pipeline import load_popularity, load_streams, stage_ingest


class TestIngestLoaders:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("u1\tN1\t100", r"streams\.tsv: line 2: expected 4 columns"),
            ("u1\tN1\t100\t0\t9", r"streams\.tsv: line 2: expected 4 columns"),
            (
                "u1\tN1\tnoon\t0",
                r"streams\.tsv: line 2: timestamp and rank must be integers, got 'noon' and '0'",
            ),
            ("u1\tN1\t100\t1.5", r"streams\.tsv: line 2: timestamp and rank must be integers"),
        ],
    )
    def test_load_streams_bad_line_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "streams.tsv"
        path.write_text("u1\tN0\t90\t0\n%s\n" % line)
        with pytest.raises(ValueError, match=message):
            load_streams(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("N1", r"popularity\.tsv: line 2: expected 2 columns"),
            ("N1\t3\t4", r"popularity\.tsv: line 2: expected 2 columns"),
            ("N1\tmany", r"popularity\.tsv: line 2: count must be an integer, got 'many'"),
        ],
    )
    def test_load_popularity_bad_line_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "popularity.tsv"
        path.write_text("N0\t2\n%s\n" % line)
        with pytest.raises(ValueError, match=message):
            load_popularity(path)

    def test_well_formed_files_load(self, tmp_path):
        streams = tmp_path / "streams.tsv"
        streams.write_text("u1\tN0\t90\t0\nu1\tN1\t100\t1\n")
        loaded = load_streams(streams)
        assert list(loaded) == ["u1"]
        assert [(e.news, e.timestamp, e.within_impression_rank) for e in loaded["u1"]] == [
            ("N0", 90, 0),
            ("N1", 100, 1),
        ]
        popularity = tmp_path / "popularity.tsv"
        popularity.write_text("N0\t2\nN1\t5\n")
        assert load_popularity(popularity) == {"N0": 2, "N1": 5}


class TestIngestMessages:
    def test_validation_messages_reach_the_file_in_source_order(self, tmp_path):
        news = tmp_path / "news.tsv"
        news.write_text(
            "N1\tsports\tsoccer\tDerby draw\tLevel after a late goal.\thttp://x/1\n"
            "N2\tsports\n"
            "N3\tfinance\tmarkets\tStocks rally\tEarnings lifted the market.\thttp://x/3\n"
        )
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text(
            "B1\tU1\t11/11/2019 9:00:00 AM\t\tN1-1 N3-x N3-1\n"
            "B2\tU2\t11/11/2019 9:05:00 AM\t\tN7-1 N1-1\n"
        )
        cfg = RunConfig(news_path=str(news), behaviors_path=str(behaviors), out_dir=str(tmp_path / "out"))
        counters = stage_ingest(cfg)
        assert counters["news_rows_skipped_malformed"] == 1
        assert counters["behaviors_tokens_skipped_malformed"] == 1
        assert (tmp_path / "out" / "ingest" / "messages.txt").read_text().splitlines() == [
            "news: line 2: malformed news row",
            "behaviors: line 1: bad impression token 'N3-x'",
            "clicks: user U2: dropped 1 click(s) on unknown articles",
        ]
