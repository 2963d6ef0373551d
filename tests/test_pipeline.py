import hashlib
import os
import shutil

import pytest

from coldrec.config import RunConfig, load_config
from coldrec.fixture import generate_fixture
from coldrec.pipeline import (
    load_popularity,
    load_streams,
    stage_ingest,
    stage_split,
    stage_triplets,
)

CONFIG_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "fixture.toml")


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


class TestSetupArtifacts:
    def test_frozen_checksums(self, tmp_path):
        """The desk fixture's triplets and splits, byte for byte."""
        generate_fixture(50, 200, 0.8, 7, tmp_path / "fixture")
        shutil.copy(CONFIG_PATH, tmp_path / "fixture.toml")
        cfg = load_config(str(tmp_path / "fixture.toml"), out_dir="out")
        for stage in (stage_ingest, stage_triplets, stage_split):
            stage(cfg)
        digests = {}
        for name in (
            "triplets.tsv",
            "splits/warm/train.tsv",
            "splits/warm/test.tsv",
            "splits/warm/manifest.json",
            "splits/cold/train.tsv",
            "splits/cold/test.tsv",
            "splits/cold/manifest.json",
        ):
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        assert digests == {
            "triplets.tsv": "1b9d77040ba8ecf291adfea10bb7a2ddd3f504e152634f8845c3af96359b74a0",
            "splits/warm/train.tsv": "a0689ab713e27a4cf276f6f315791582345033b26735c13297dea5c25c695e4e",
            "splits/warm/test.tsv": "730a10e9509f37b7b10518dd5cc045ff7583e423acac5b6e83c5b0ed89290a7d",
            "splits/warm/manifest.json": "9af3a956e9d7a1cea1cdbde5b645a8bddbe90812b84fdf8657e040dda8ec160e",
            "splits/cold/train.tsv": "40151a62ad54e45d81371d1dd1e1dbbdcff10a3a423f9c729d048761079f871f",
            "splits/cold/test.tsv": "c9c59d6e45860af09ee5413da58155a78496a3dc882229bead60941cffbb15c6",
            "splits/cold/manifest.json": "ea8f75d69091fe681b45ba4c30b9b38c04073576c5f2c8445dce52d1f7ec986f",
        }
