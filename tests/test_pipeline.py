import pytest

from coldrec.pipeline import load_popularity, load_streams


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
