import ast
import gc
import io
import json
import pathlib
import re
import sys
import warnings
import zipfile

import numpy as np
import pytest
from scipy import sparse

import coldrec
from coldrec.artifacts import (ID, atomic_open, check_fields, id_positions, load_csr, load_matrix, parse_rows,
                               read_json, read_lines, read_manifest, read_rows, save_csr, save_matrix, write_json,
                               write_rows)
from coldrec.errors import FormatError
from coldrec.mind import Article, Clicks
from coldrec.numerics import CSRMatrix
from coldrec.transitions import Triplet


def saved_blob(tmp_path, values):
    path = tmp_path / "m.npy"
    save_matrix(values, path)
    return path.read_bytes()


def assert_format_error_names(path, load=load_matrix):
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value).startswith(str(path) + ": ")


def assert_rejection_closes_its_file(monkeypatch, path, load):
    """The FormatError leaves no file for the garbage collector to close (and warn about)."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        # the helper's frame and its exception form a cycle that only the collector frees
        assert_format_error_names(path, load)
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


class TestMatrixRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        mat = rng.normal(size=(7, 3))
        mat[0] = [-0.0, 5e-324, np.inf]
        mat[1, 0] = np.nan
        path = tmp_path / "m.npy"
        save_matrix(np.asfortranarray(mat), path)
        loaded = load_matrix(path)
        assert loaded.dtype == np.float64 and loaded.shape == (7, 3)
        assert loaded.flags.c_contiguous
        assert loaded.tobytes() == mat.tobytes()

    def test_file_is_plain_npy(self, tmp_path):
        mat = np.arange(6.0).reshape(2, 3)
        blob = saved_blob(tmp_path, mat)
        assert blob.startswith(b"\x93NUMPY")
        np.testing.assert_array_equal(np.load(io.BytesIO(blob), allow_pickle=False), mat)

    def test_non_npy_file_raises(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"CRMX" + b"\x00" * 32)
        assert_format_error_names(path)

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "trunc.npy"
        path.write_bytes(saved_blob(tmp_path, np.ones((2, 2)))[:20])
        assert_format_error_names(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "trunc.npy"
        path.write_bytes(saved_blob(tmp_path, np.ones((2, 2)))[:-8])
        assert_format_error_names(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.npy"
        path.write_bytes(b"")
        assert_format_error_names(path)

    def test_pickled_object_array_is_refused(self, tmp_path):
        path = tmp_path / "obj.npy"
        np.save(path, np.array([[{"a": 1}]], dtype=object), allow_pickle=True)
        assert_format_error_names(path)

    @pytest.mark.parametrize(
        "values",
        [np.ones(3), np.ones((2, 2), dtype=np.int64), np.ones((1, 2, 2))],
        ids=["1-d", "int64", "3-d"],
    )
    def test_not_a_2d_float64_array_is_rejected(self, tmp_path, values):
        path = tmp_path / "other.npy"
        np.save(path, values, allow_pickle=False)
        assert_format_error_names(path)

    def test_npz_archive_is_rejected(self, tmp_path):
        path = tmp_path / "archive.npy"
        with open(path, "wb") as fh:
            np.savez(fh, m=np.ones((2, 2)))
        assert_format_error_names(path)

    def test_npz_rejection_closes_the_archive(self, tmp_path, monkeypatch):
        path = tmp_path / "archive.npy"
        with open(path, "wb") as fh:
            np.savez(fh, m=np.ones((2, 2)))
        assert_rejection_closes_its_file(monkeypatch, path, load_matrix)

    def test_truncated_npz_archive_is_rejected_and_closed(self, tmp_path, monkeypatch):
        path = tmp_path / "archive.npy"
        with open(path, "wb") as fh:
            np.savez(fh, m=np.ones((20, 20)))
        path.write_bytes(path.read_bytes()[:500])  # zip magic, no zip directory
        assert_rejection_closes_its_file(monkeypatch, path, load_matrix)

    def test_saving_non_2d_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.ones(3), tmp_path / "v.npy")
        assert list(tmp_path.iterdir()) == []


# 4 x 5 with an all-zero row (row 1) and an all-zero column (column 0)
CSR_DENSE = np.array(
    [[0.0, 0.5, 0.0, 0.0, 2.0], [0.0] * 5, [0.0, 0.0, -1.5, 0.25, 0.0], [0.0, 1.0, 0.0, 0.0, 3.0]]
)


def csr_arrays(**changes):
    """The scipy save_npz keys of CSR_DENSE, with `changes` applied (None drops a key)."""
    ref = sparse.csr_matrix(CSR_DENSE)
    arrays = {"data": ref.data, "indices": ref.indices, "indptr": ref.indptr,
              "shape": np.array(ref.shape), "format": b"csr"}
    arrays.update(changes)
    return {key: value for key, value in arrays.items() if value is not None}


def write_npz(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


class TestCSRFiles:
    def test_round_trip(self, tmp_path):
        ref = sparse.csr_matrix(CSR_DENSE)
        path = tmp_path / "m.npz"
        save_csr(CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape), path)
        loaded = load_csr(path)
        assert loaded.shape == (4, 5) and loaded.nnz == ref.nnz
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(loaded, key), getattr(ref, key))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]

    def test_indices_are_int32_on_disk_and_int64_after_loading(self, tmp_path):
        ref = sparse.csr_matrix(CSR_DENSE)
        ours = CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape)
        path = tmp_path / "m.npz"
        save_csr(ours, path)
        with np.load(path) as archive:
            assert archive["indices"].dtype == archive["indptr"].dtype == np.int32
            assert archive["data"].dtype == np.float64
        loaded = load_csr(path)
        assert loaded.indices.dtype == loaded.indptr.dtype == np.int64
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(loaded, key), getattr(ours, key))

    def test_columns_beyond_int32_keep_int64_indices(self, tmp_path):
        wide = CSRMatrix([1.5], [2**31], [0, 1], (1, 2**31 + 1))
        path = tmp_path / "wide.npz"
        save_csr(wide, path)
        with np.load(path) as archive:
            assert archive["indices"].dtype == archive["indptr"].dtype == np.int64
        loaded = load_csr(path)
        assert loaded.shape == wide.shape and loaded.indices.tolist() == [2**31]

    @pytest.mark.parametrize("compressed", [True, False])
    def test_reads_scipy_save_npz(self, tmp_path, compressed):
        path = tmp_path / "scipy.npz"
        sparse.save_npz(path, sparse.csr_matrix(CSR_DENSE), compressed=compressed)
        assert np.array_equal(load_csr(path).toarray(), CSR_DENSE)

    def test_scipy_load_npz_reads_it(self, tmp_path):
        ref = sparse.csr_matrix(CSR_DENSE)
        path = tmp_path / "ours.npz"
        save_csr(CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape), path)
        loaded = sparse.load_npz(path)
        assert loaded.format == "csr" and loaded.shape == (4, 5)
        assert np.array_equal(loaded.toarray(), CSR_DENSE)

    @pytest.mark.parametrize("key", ["data", "indices", "indptr", "shape", "format"])
    def test_missing_key(self, tmp_path, key):
        path = write_npz(tmp_path / "m.npz", **csr_arrays(**{key: None}))
        assert_format_error_names(path, load_csr)

    @pytest.mark.parametrize(
        "indptr",
        [[1, 2, 2, 4, 6], [0, 2, 2, 4, 5], [0, 2, 2, 4, 7], [0, 3, 2, 4, 6], [0, 2, 4, 6], [0, 2, 2, 4, 6, 6]],
        ids=["not_from_0", "short_of_len_data", "past_len_data", "decreasing", "too_few_rows", "too_many_rows"],
    )
    def test_bad_indptr(self, tmp_path, indptr):
        path = write_npz(tmp_path / "m.npz", **csr_arrays(indptr=np.array(indptr)))
        assert_format_error_names(path, load_csr)

    @pytest.mark.parametrize("column", [-1, 5])
    def test_column_outside_the_shape(self, tmp_path, column):
        indices = sparse.csr_matrix(CSR_DENSE).indices.copy()
        indices[2] = column
        path = write_npz(tmp_path / "m.npz", **csr_arrays(indices=indices))
        assert_format_error_names(path, load_csr)

    def test_other_sparse_format(self, tmp_path):
        path = tmp_path / "m.npz"
        sparse.save_npz(path, sparse.csc_matrix(CSR_DENSE))
        assert_format_error_names(path, load_csr)

    def test_plain_npy_is_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        with open(path, "wb") as fh:
            np.save(fh, CSR_DENSE)
        assert_format_error_names(path, load_csr)

    def test_rejection_closes_the_archive(self, tmp_path, monkeypatch):
        path = write_npz(tmp_path / "m.npz", **csr_arrays(indptr=None))
        assert_rejection_closes_its_file(monkeypatch, path, load_csr)

    @staticmethod
    def saved_archive(tmp_path):
        """A save_csr archive of a 30 x 40 matrix, large enough to cut at 500 bytes."""
        dense = np.random.default_rng(5).random((30, 40))
        dense[dense < 0.7] = 0.0
        ref = sparse.csr_matrix(dense)
        path = tmp_path / "m.npz"
        save_csr(CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape), path)
        return path

    @pytest.mark.parametrize("cut", ["500_bytes", "half", "30_short"])
    def test_truncated_archive(self, tmp_path, monkeypatch, cut):
        path = self.saved_archive(tmp_path)
        blob = path.read_bytes()
        keep = {"500_bytes": 500, "half": len(blob) // 2, "30_short": len(blob) - 30}[cut]
        assert keep < len(blob)
        path.write_bytes(blob[:keep])
        assert_rejection_closes_its_file(monkeypatch, path, load_csr)

    @pytest.mark.parametrize("compressed", [True, False])
    def test_member_failing_its_crc(self, tmp_path, monkeypatch, compressed):
        path = tmp_path / "m.npz"
        sparse.save_npz(path, sparse.csr_matrix(np.random.default_rng(6).random((30, 40))), compressed=compressed)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("data.npy")
            payload = info.header_offset + 30 + len(info.filename) + len(info.extra)
            assert info.compress_size > 200
        blob = bytearray(path.read_bytes())
        blob[payload + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert_rejection_closes_its_file(monkeypatch, path, load_csr)


class TestAtomicOpen:
    def test_clean_exit_publishes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.tsv"
        with atomic_open(path) as fh:
            fh.write("a\tb\r\n")
            assert not path.exists()
        assert path.read_bytes() == b"a\tb\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]

    @pytest.mark.parametrize("mode, payload", [("w", "partial row"), ("wb", b"\x93NUMPY")])
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_writer_keeps_the_old_file_and_no_temp(self, tmp_path, mode, payload, error):
        path = tmp_path / "artifact"
        path.write_bytes(b"old contents\n")
        with pytest.raises(error):
            with atomic_open(path, mode) as fh:
                fh.write(payload)
                raise error("interrupted mid-write")
        assert path.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    def test_failed_writer_creates_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_open(tmp_path / "new.csv") as fh:
                fh.write("header\n")
                raise ValueError("bad row")
        assert list(tmp_path.iterdir()) == []

    def test_failed_matrix_write_keeps_the_old_matrix(self, tmp_path, monkeypatch):
        path = tmp_path / "U.npy"
        save_matrix(np.ones((2, 2)), path)
        before = path.read_bytes()

        def failing_save(fh, arr, allow_pickle):
            fh.write(b"\x93NUMPY")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "save", failing_save)
        with pytest.raises(OSError):
            save_matrix(np.zeros((3, 3)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["U.npy"]


def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "manifest.json"
    write_json({"b": [1, 2], "a": "x"}, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps({"a": "x", "b": [1, 2]}, indent=2) + "\n"


def test_read_json_round_trips_write_json(tmp_path):
    path = tmp_path / "manifest.json"
    write_json({"b": [1, 2], "a": "x"}, path)
    assert read_json(path) == {"a": "x", "b": [1, 2]}


@pytest.mark.parametrize("text", ["", '{"kind": "warm",', "not json"], ids=["empty", "cut", "text"])
def test_read_json_rejects_a_file_that_is_not_json(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_json(path)
    assert str(err.value).startswith("%s: not JSON: " % path)


@pytest.mark.parametrize("bad_line", [1, 2, 5001])
def test_read_lines_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, bad_line):
    # line 5001 lies past the decoder's first chunk, which fails lines after those it read
    lines = ["row %d\tcafé\n" % n for n in range(1, 5003)]
    path = tmp_path / "rows.tsv"
    path.write_bytes("".join(lines).encode("utf-8").replace(
        lines[bad_line - 1].encode("utf-8"), lines[bad_line - 1].encode("latin-1")))
    read = []
    with pytest.raises(FormatError, match=r"^%s: line %d: not UTF-8: " % (re.escape(str(path)), bad_line)):
        read.extend(read_lines(path))
    assert read == [(n, line.rstrip("\n")) for n, line in enumerate(lines[: len(read)], start=1)]


def test_read_rows_types_each_line_and_rejects_another_column_count(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\t1\t0.5\nc\t2\t3\ne\t3\n", encoding="utf-8")
    rows = read_rows(path, {"name": str, "count": int, "share": float})
    assert [next(rows), next(rows)] == [(1, ["a", 1, 0.5]), (2, ["c", 2, 3.0])]
    with pytest.raises(FormatError, match=r"rows\.tsv: line 3: expected 3 columns$"):
        next(rows)


@pytest.mark.parametrize(
    "line, message",
    [
        ("a\t1.5\t0.5", r"line 2: count must be an integer, got '1\.5'$"),
        ("a\t\t0.5", r"line 2: count must be an integer, got ''$"),
        ("a\t1\thigh", r"line 2: share must be a number, got 'high'$"),
    ],
)
def test_read_rows_names_the_line_and_column_of_a_field_its_type_rejects(tmp_path, line, message):
    path = tmp_path / "rows.tsv"
    path.write_text("a\t1\t0.5\n%s\n" % line, encoding="utf-8")
    with pytest.raises(FormatError, match=r"^%s: %s" % (re.escape(str(path)), message)):
        list(read_rows(path, {"name": str, "count": int, "share": float}))


ROW_COLUMNS = {"id": ID, "note": str, "count": int}


@pytest.mark.parametrize(
    "lines, key, message",
    [
        (["a\tx\t1", "\tx\t2"], (), r"line 2: id must not be empty$"),
        (["a\tx\t1", "b\tx\t2", "a\ty\t3"], ("id",), r"line 3: id a is listed twice$"),
        (["a\tx\t1", "a\tx\t2", "a\ty\t01"], ("id", "count"), r"line 3: id a, count 1 is listed twice$"),
    ],
    ids=["empty id", "repeated id", "repeated typed key"],
)
def test_parse_rows_names_the_line_of_an_empty_id_or_a_repeated_key(lines, key, message):
    with pytest.raises(FormatError, match=r"^rows\.tsv: " + message):
        list(parse_rows("rows.tsv", ROW_COLUMNS, enumerate(lines, start=1), "\t", key))


def test_parse_rows_keeps_an_empty_str_field():  # a catalog abstract may be empty
    rows = parse_rows("rows.tsv", ROW_COLUMNS, enumerate(["a\t\t1", "b\t\t1"], start=1), "\t", ("id",))
    assert list(rows) == [(1, ["a", "", 1]), (2, ["b", "", 1])]


@pytest.mark.parametrize(
    "row, old_format, columns",
    [
        (Article("N1", "news", "sports", "A title", ""), "%s\t%s\t%s\t%s\t%s\n",
         {**dict.fromkeys(Article._fields, str), "id": ID}),  # catalog.tsv
        (("U7", "N3", 1573463158, 2), "%s\t%s\t%d\t%d\n",
         dict(zip(Clicks._fields, (ID, ID, int, int)))),  # streams.tsv
        (("N3", 12), "%s\t%d\n", {"article": ID, "count": int}),  # popularity.tsv
        (Triplet("U7", "N1", "N3", 1.0 + 0.1 * 7), "%s\t%s\t%s\t%r\n",
         dict(zip(Triplet._fields, (ID, ID, ID, float)))),  # triplets.tsv and split sides
    ],
)
def test_write_rows_writes_the_bytes_of_each_artifact_format(tmp_path, row, old_format, columns):
    path = tmp_path / "rows.tsv"
    write_rows(path, [row, row])
    assert path.read_bytes() == (old_format % tuple(row)).encode("utf-8") * 2
    assert list(read_rows(path, columns)) == [(n, list(row)) for n in (1, 2)]


@pytest.mark.parametrize(
    "rows, sep, text",
    [
        ([("model", "setting", "k", "metric", "value"), ("almm", "cold", 5, "map", 0.1 + 0.2)], ",",
         "model,setting,k,metric,value\nalmm,cold,5,map,0.30000000000000004\n"),  # metrics.csv
        ([("seed", 7), ("cold_almm_beats_oord_map_at_10", True)], " = ",
         "seed = 7\ncold_almm_beats_oord_map_at_10 = True\n"),  # run.log
        ([("behaviors", "line 2: malformed behaviors row")], ": ",
         "behaviors: line 2: malformed behaviors row\n"),  # ingest/messages.txt
    ],
)
def test_write_rows_joins_the_fields_by_the_separator(tmp_path, rows, sep, text):
    path = tmp_path / "rows.txt"
    write_rows(path, rows, sep=sep)
    assert path.read_text(encoding="utf-8") == text


def test_only_the_artifacts_module_opens_a_file():
    """Every write goes through atomic_open in coldrec.artifacts; the config reader is the one other open."""
    package = pathlib.Path(coldrec.__file__).parent
    opens = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))  # open(), os.open(), ...
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]  # an import of atomic_open, say under another name
            else:
                continue
            if name in ("open", "atomic_open"):
                opens.append("%s:%d" % (path.relative_to(package), getattr(node, "lineno", 0)))
    assert [site.split(":")[0] for site in opens] == ["config.py"], opens


def test_write_rows_of_no_rows_writes_an_empty_file(tmp_path):
    path = tmp_path / "rows.tsv"
    write_rows(path, iter(()))
    assert path.read_bytes() == b""


def test_id_positions_numbers_each_id_by_its_place_in_the_list():
    assert id_positions(["N3", "N1", "N2"], "meta.json", "ids") == {"N3": 0, "N1": 1, "N2": 2}
    assert id_positions([], "meta.json", "ids") == {}


@pytest.mark.parametrize(
    "ids, message",
    [
        ({"N1": 0, "N2": 1}, "meta.json: ids must be a list of ids"),  # the {id: index} form
        ("N1", "meta.json: ids must be a list of ids"),
        (None, "meta.json: ids must be a list of ids"),
        (["N1", 7], "meta.json: ids must be a list of ids"),
        (["N2", "N1", "N2", "N3", "N1"], "meta.json: ids lists N1, N2 more than once"),
    ],
)
def test_id_positions_rejects_anything_but_a_list_of_distinct_strings(ids, message):
    with pytest.raises(FormatError) as err:
        id_positions(ids, "meta.json", "ids")
    assert str(err.value) == message


# a manifest's fields as a reader declares them: a type, a nested object's fields, or a reader
MANIFEST_FIELDS = {"seed": int, "fraction": float, "ids": id_positions, "hyper": {"dim": int, "on": bool}}
MANIFEST = {"kind": "cold", "seed": 7, "fraction": 0.1, "ids": ["N2", "N1"], "hyper": {"dim": 4, "on": True}}


def write_manifest(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def test_read_manifest_returns_each_field_as_its_kind_reads_it(tmp_path):
    path = write_manifest(tmp_path, MANIFEST)
    expected = {**MANIFEST, "ids": {"N2": 0, "N1": 1}}
    assert read_manifest(path, MANIFEST_FIELDS, ("warm", "cold")) == expected
    assert read_manifest(path, MANIFEST_FIELDS, ("warm", "cold"), "cold") == expected


def test_read_manifest_takes_an_int_where_a_float_is_declared(tmp_path):
    path = write_manifest(tmp_path, {**MANIFEST, "fraction": 1})
    assert read_manifest(path, MANIFEST_FIELDS, ("cold",))["fraction"] == 1


@pytest.mark.parametrize(
    "change, message",
    [
        ({"extra": 1}, "unknown key extra"),
        ({"seed": None}, "missing key seed"),
        ({"hyper": {"dim": 4}}, "missing key hyper.on"),
        ({"hyper": {"dim": 4, "on": True, "off": False}}, "unknown key hyper.off"),
        ({"hyper": [4, True]}, "hyper must be a JSON object"),
        ({"kind": None}, "missing key kind"),
        ({"kind": 1}, "kind must be a string, got 1"),
        ({"kind": "lukewarm"}, "kind must be one of warm, cold, got 'lukewarm'"),
        ({"seed": 7.0}, "seed must be an integer, got 7.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
        ({"fraction": False}, "fraction must be a number, got False"),
        ({"hyper": {"dim": 4, "on": 1}}, "hyper.on must be a boolean, got 1"),
        ({"ids": ["N1", "N1"]}, "ids lists N1 more than once"),
        ({"ids": {"N1": 0}}, "ids must be a list of ids"),
    ],
    ids=["unknown key", "missing key", "missing nested key", "unknown nested key", "nested array", "missing kind",
         "int kind", "unknown kind", "float seed", "bool seed", "string seed", "bool fraction", "int bool",
         "repeated id", "id dict"],
)
def test_read_manifest_names_the_path_and_key_it_rejects(tmp_path, change, message):
    manifest = {key: value for key, value in {**MANIFEST, **change}.items() if value is not None}
    path = write_manifest(tmp_path, manifest)
    with pytest.raises(FormatError) as err:
        read_manifest(path, MANIFEST_FIELDS, ("warm", "cold"))
    assert str(err.value) == "%s: %s" % (path, message)


@pytest.mark.parametrize("document", [[MANIFEST], "cold", None, 7])
def test_read_manifest_rejects_a_document_that_is_not_an_object(tmp_path, document):
    path = write_manifest(tmp_path, document)
    with pytest.raises(FormatError) as err:
        read_manifest(path, MANIFEST_FIELDS, ("cold",))
    assert str(err.value) == "%s: the file must be a JSON object" % path


def test_read_manifest_rejects_a_kind_the_caller_did_not_ask_for(tmp_path):
    path = write_manifest(tmp_path, MANIFEST)
    with pytest.raises(FormatError) as err:
        read_manifest(path, MANIFEST_FIELDS, ("warm", "cold"), "warm")
    assert str(err.value) == "%s: kind must be 'warm' for this path, got 'cold'" % path


def test_check_fields_passes_a_reader_the_dotted_key():
    calls = []
    fields = {"outer": {"inner": lambda value, path, key: calls.append((value, path, key)) or value * 2}}
    assert check_fields({"outer": {"inner": 3}}, fields, "m.json") == {"outer": {"inner": 6}}
    assert calls == [(3, "m.json", "outer.inner")]
