import hashlib
import json
import os
import shutil
from collections import Counter

import numpy as np
import pytest

from coldrec import mind
from coldrec.artifacts import save_csr, save_matrix, write_json
from coldrec.config import RunConfig, load_config
from coldrec.errors import FormatError
from coldrec.features import FeatureMatrix
from coldrec.fixture import generate_fixture
from coldrec.numerics import CSRMatrix
from coldrec.pipeline import (
    load_features,
    load_popularity,
    load_streams,
    stage_ingest,
    stage_split,
    stage_triplets,
    save_features,
)

from conftest import click_rows

CONFIG_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "fixture.toml")


class TestIngestLoaders:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("u1\tN1\t100", r"streams\.tsv: line 2: expected 4 columns"),
            ("u1\tN1\t100\t0\t9", r"streams\.tsv: line 2: expected 4 columns"),
            ("u1\tN1\tnoon\t0", r"streams\.tsv: line 2: timestamp must be an integer, got 'noon'$"),
            ("u1\tN1\t100\t1.5", r"streams\.tsv: line 2: rank must be an integer, got '1\.5'$"),
            (
                "u1\tN1\t9223372036854775808\t0",
                r"streams\.tsv: line 2: timestamp and rank must be below 2\*\*63, got 9223372036854775808 and 0",
            ),
            ("u1\tN1\t0\t0", r"streams\.tsv: line 2: timestamp must be > 0 and rank >= 0, got 0 and 0"),
            ("u2\tN1\t100\t-1", r"streams\.tsv: line 2: timestamp must be > 0 and rank >= 0, got 100 and -1"),
            ("u1\tN1\t89\t3", r"streams\.tsv: line 2: user u1's events are out of \(timestamp, rank\) order"),
        ],
    )
    def test_load_streams_bad_line_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "streams.tsv"
        path.write_text("u1\tN0\t90\t0\n%s\n" % line)
        with pytest.raises(FormatError, match=message):
            load_streams(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("N1", r"popularity\.tsv: line 2: expected 2 columns"),
            ("N1\t3\t4", r"popularity\.tsv: line 2: expected 2 columns"),
            ("N1\tmany", r"popularity\.tsv: line 2: count must be an integer, got 'many'"),
            ("N1\t-100000", r"popularity\.tsv: line 2: count must be >= 0, got -100000"),
            ("N0\t3", r"popularity\.tsv: line 2: article N0 is listed twice"),
        ],
    )
    def test_load_popularity_bad_line_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "popularity.tsv"
        path.write_text("N0\t2\n%s\n" % line)
        with pytest.raises(FormatError, match=message):
            load_popularity(path)

    def test_well_formed_files_load(self, tmp_path):
        streams = tmp_path / "streams.tsv"
        # an equal (timestamp, rank) is a tie the writer keeps in file order; another user's
        # earlier event in between breaks no order
        streams.write_text("u1\tN0\t90\t0\nu2\tN2\t50\t0\nu1\tN1\t100\t1\nu1\tN2\t100\t1\n")
        assert click_rows(load_streams(streams)) == [
            ("u1", "N0", 90, 0),
            ("u1", "N1", 100, 1),
            ("u1", "N2", 100, 1),
            ("u2", "N2", 50, 0),
        ]
        popularity = tmp_path / "popularity.tsv"
        popularity.write_text("N0\t2\nN1\t5\nN2\t0\n")
        assert load_popularity(popularity) == {"N0": 2, "N1": 5, "N2": 0}


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


class TestIngestReadsEachLogOnce:
    def test_read_lines_calls_per_path(self, tmp_path, monkeypatch):
        news, behaviors = generate_fixture(8, 30, 0.8, 1, tmp_path / "fx")
        calls = Counter()
        read_lines = mind.read_lines

        def counted(path):
            calls[str(path)] += 1
            return read_lines(path)

        monkeypatch.setattr(mind, "read_lines", counted)
        stage_ingest(RunConfig(news_path=str(news), behaviors_path=str(behaviors), out_dir=str(tmp_path / "out")))
        assert calls == {str(news): 1, str(behaviors): 1}


class TestParseOrder:
    def test_streams_messages_and_triplets_keep_the_first_kept_row_order(self, tmp_path):
        """U1's first kept row (line 1) has no click and U1 clicks only after U2 does,
        yet U1's rows come first. U2's line-4 row is earlier than its line-2 row. Line 3
        and line 8 tie on time, so their clicks interleave by rank, file order breaking
        the ties. N8 and N9 are unknown, which empties U6; lines 5, 6 and 7 hold a bad
        token, an unparseable time and a short row."""
        news = tmp_path / "news.tsv"
        news.write_text("".join("N%d\tnews\tworld\tTitle %d\tAbstract %d.\thttp://x/%d\n" % ((k,) * 4)
                                for k in range(1, 6)))
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text(
            "B1\tU1\t11/11/2019 9:00:00 AM\tN1\tN2-0 N3-0\n"
            "B2\tU2\t11/11/2019 9:01:00 AM\t\tN1-1 N2-1\n"
            "B3\tU1\t11/11/2019 9:05:00 AM\tN1 N2\tN3-1 N9-1 N2-1\n"
            "B4\tU2\t11/11/2019 8:59:00 AM\t\tN4-1 N1-0\n"
            "B5\tU3\t11/11/2019 9:10:00 AM\t\tN2-1 garbage N5-1\n"
            "B6\tU4\tnot a time\t\tN1-1\n"
            "B7\tU5\t11/11/2019 9:00:00 AM\n"
            "B8\tU1\t11/11/2019 9:05:00 AM\t\tN4-1 N5-1\n"
            "B9\tU6\t11/11/2019 9:20:00 AM\t\tN8-1\n"
            "B10\tU2\t11/11/2019 11:00:00 AM\t\tN3-1 N1-1\n"
        )
        cfg = RunConfig(news_path=str(news), behaviors_path=str(behaviors), out_dir=str(tmp_path / "out"))
        stage_ingest(cfg)
        stage_triplets(cfg)
        out = tmp_path / "out"
        assert (out / "ingest" / "streams.tsv").read_bytes() == (
            b"U1\tN3\t1573463100\t0\n"
            b"U1\tN4\t1573463100\t0\n"
            b"U1\tN5\t1573463100\t1\n"
            b"U1\tN2\t1573463100\t2\n"
            b"U2\tN4\t1573462740\t0\n"
            b"U2\tN1\t1573462860\t0\n"
            b"U2\tN2\t1573462860\t1\n"
            b"U2\tN3\t1573470000\t0\n"
            b"U2\tN1\t1573470000\t1\n"
            b"U3\tN2\t1573463400\t0\n"
            b"U3\tN5\t1573463400\t1\n"
        )
        assert (out / "ingest" / "messages.txt").read_bytes() == (
            b"behaviors: line 5: bad impression token 'garbage'\n"
            b"behaviors: line 6: unparseable timestamp 'not a time'\n"
            b"behaviors: line 7: malformed behaviors row\n"
            b"clicks: user U1: dropped 1 click(s) on unknown articles\n"
            b"clicks: user U6: dropped 1 click(s) on unknown articles\n"
        )
        assert (out / "triplets.tsv").read_bytes() == (
            b"U1\tN3\tN4\t1.1\n"
            b"U1\tN4\tN5\t1.1\n"
            b"U1\tN5\tN2\t1.1\n"
            b"U2\tN4\tN1\t1.1\n"
            b"U2\tN1\tN2\t1.1\n"
            b"U2\tN3\tN1\t1.1\n"
            b"U3\tN2\tN5\t1.1\n"
        )


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


class TestFeatureFiles:
    TFIDF = CSRMatrix([0.6, 0.8, 1.0], [0, 2, 1], [0, 2, 2, 3], (3, 4))

    @pytest.mark.parametrize("kind", ["tfidf", "external"])
    def test_round_trip(self, tmp_path, kind):
        matrix = self.TFIDF if kind == "tfidf" else self.TFIDF.toarray()
        save_features(FeatureMatrix(matrix, kind, {"a": 0, "b": 1, "c": 2}), str(tmp_path / kind))
        loaded = load_features(str(tmp_path / kind))
        assert loaded.kind == kind and loaded.row_index == {"a": 0, "b": 1, "c": 2}
        assert isinstance(loaded.matrix, CSRMatrix if kind == "tfidf" else np.ndarray)
        assert np.array_equal(loaded.rows(["c", "a"]) @ np.eye(4), self.TFIDF.toarray()[[2, 0]])

    @pytest.mark.parametrize("kind", ["tfidf", "external"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_values_are_rejected(self, tmp_path, kind, value):
        base = str(tmp_path / kind)
        data = np.array(self.TFIDF.data)
        data[1] = value
        matrix = CSRMatrix(data, self.TFIDF.indices, self.TFIDF.indptr, self.TFIDF.shape)
        matrix = matrix if kind == "tfidf" else matrix.toarray()
        save_features(FeatureMatrix(matrix, kind, {"a": 0, "b": 1, "c": 2}), base)
        with pytest.raises(FormatError) as err:
            load_features(base)
        path = base + (".npz" if kind == "tfidf" else ".npy")
        assert str(err.value) == path + ": non-finite feature values"

    def test_dense_tfidf_rows_are_rejected(self, tmp_path):
        # a TF-IDF meta file reads its rows from `tfidf.npz` only: a dense `tfidf.npy` beside it is not read
        base = str(tmp_path / "tfidf")
        write_json({"kind": "tfidf", "dim": 4, "ids": ["a", "b", "c"]}, base + ".meta.json")
        save_matrix(self.TFIDF.toarray(), base + ".npy")
        with pytest.raises(FileNotFoundError) as err:
            load_features(base)
        assert err.value.filename == base + ".npz"

    def test_external_rows_are_read_from_the_npy_beside_a_stray_npz(self, tmp_path):
        base = str(tmp_path / "external")
        save_features(FeatureMatrix(self.TFIDF.toarray(), "external", {"a": 0, "b": 1, "c": 2}), base)
        save_csr(CSRMatrix([], [], [0, 0], (1, 1)), base + ".npz")
        loaded = load_features(base)
        assert isinstance(loaded.matrix, np.ndarray)
        assert np.array_equal(loaded.matrix, self.TFIDF.toarray())

    @pytest.mark.parametrize("kind", ["tfidf", "external"])
    @pytest.mark.parametrize("meta_change", [{"dim": 5}, {"ids": ["a", "b"]}], ids=["dim", "ids"])
    def test_shape_contradicting_the_meta_file(self, tmp_path, kind, meta_change):
        base = str(tmp_path / kind)
        matrix = self.TFIDF if kind == "tfidf" else self.TFIDF.toarray()
        save_features(FeatureMatrix(matrix, kind, {"a": 0, "b": 1, "c": 2}), base)
        with open(base + ".meta.json") as fh:
            meta = json.load(fh)
        with open(base + ".meta.json", "w") as fh:
            json.dump({**meta, **meta_change}, fh)
        with pytest.raises(FormatError) as err:
            load_features(base)
        path = base + (".npz" if kind == "tfidf" else ".npy")
        assert str(err.value).startswith(path + ": ") and "meta.json" in str(err.value)

    @pytest.mark.parametrize(
        "meta",
        [
            ["tfidf", 4, ["a", "b", "c"]],
            {"dim": 4, "ids": ["a", "b", "c"]},
            {"kind": "tfidf", "ids": ["a", "b", "c"]},
            {"kind": "tfidf", "dim": 4},
            {"kind": "tfidf", "dim": 4, "ids": "abc"},
            {"kind": "tfidf", "dim": 4, "ids": [["a"], ["b"], ["c"]]},
        ],
        ids=["list", "no_kind", "no_dim", "no_ids", "ids_not_list", "ids_not_strings"],
    )
    def test_malformed_meta_file(self, tmp_path, meta):
        base = str(tmp_path / "tfidf")
        save_features(FeatureMatrix(self.TFIDF, "tfidf", {"a": 0, "b": 1, "c": 2}), base)
        with open(base + ".meta.json", "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(FormatError) as err:
            load_features(base)
        assert str(err.value).startswith(base + ".meta.json: ")
