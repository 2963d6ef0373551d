"""What a run writes, and how its files reach disk: whole, or not at all;
outside this module, only the config reader opens a file.

`RUN_FILES` lists every file a run writes, with the stage that writes it and
the stages that read it back. Each is written through `atomic_open`, so a
stage that raises, or a process killed mid-write, leaves the previous file
(or none) at the final path, never a truncated one. `write_rows` writes every
text output; `read_rows` and `parse_rows` read rows back, typed by the
columns each reader declares; `read_manifest` reads a JSON manifest, typed by
the fields its reader declares, its id lists through `id_positions`. Dense
matrices are `.npy` files; CSR matrices are `.npz` archives with the keys of
scipy.sparse's `save_npz`, so either side can read what the other writes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
import re
import zipfile
import zlib
from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .numerics import CSRMatrix

_CSR_KEYS = ("data", "indices", "indptr", "shape", "format")
# What np.load raises for a damaged file or archive member: a bad header, a
# truncated file, a missing or damaged zip directory, a bad CRC, a corrupt
# deflate stream (scipy.sparse.save_npz compresses by default). The readers
# open the file themselves: np.load given a path leaves it open when the zip
# directory is unreadable.
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile, zlib.error)


class RunFile(NamedTuple):
    """A file a run writes: its path below the output directory (parts joined by `/`), the stage that
    writes it (`run` for run.log), and the stages, or `report`, that read it back."""
    path: str
    writer: str
    readers: tuple | dict


_SPLIT_READERS = ("train", "evaluate")  # load_split reads all three files of a split
_MODEL_READERS = ("evaluate",)
# Every run fits TF-IDF, whose rows diversity reads, but only a run on TF-IDF features trains on them
_TFIDF_READERS = {"tfidf": ("train", "evaluate"), "external": ("evaluate",)}
_EXTERNAL_READERS = {"external": ("train", "evaluate")}

# Every file a run writes, by name. `{split}` and `{model}` stand for each configured split and model
# kind. A features file's readers are given by the configured feature kind: a run on a kind they do
# not list does not write the file. The model matrices are named by their FactorModel fields.
RUN_FILES = {
    "catalog": RunFile("ingest/catalog.tsv", "ingest", ("featurize",)),
    "streams": RunFile("ingest/streams.tsv", "ingest", ("triplets",)),
    "popularity": RunFile("ingest/popularity.tsv", "ingest", ("evaluate",)),
    "messages": RunFile("ingest/messages.txt", "ingest", ()),
    "triplets": RunFile("triplets.tsv", "triplets", ("split",)),
    "split_train": RunFile("splits/{split}/train.tsv", "split", _SPLIT_READERS),
    "split_test": RunFile("splits/{split}/test.tsv", "split", _SPLIT_READERS),
    "split_manifest": RunFile("splits/{split}/manifest.json", "split", _SPLIT_READERS),
    "tfidf_meta": RunFile("features/tfidf.meta.json", "featurize", _TFIDF_READERS),
    "tfidf_rows": RunFile("features/tfidf.npz", "featurize", _TFIDF_READERS),
    "external_meta": RunFile("features/external.meta.json", "featurize", _EXTERNAL_READERS),
    "external_rows": RunFile("features/external.npy", "featurize", _EXTERNAL_READERS),
    "model_manifest": RunFile("models/{model}-{split}/manifest.json", "train", _MODEL_READERS),
    "user_factors": RunFile("models/{model}-{split}/U.npy", "train", _MODEL_READERS),
    "last_factors": RunFile("models/{model}-{split}/X.npy", "train", _MODEL_READERS),
    "next_factors": RunFile("models/{model}-{split}/Y.npy", "train", _MODEL_READERS),
    "last_mapping": RunFile("models/{model}-{split}/PsiX.npy", "train", _MODEL_READERS),
    "next_mapping": RunFile("models/{model}-{split}/PsiY.npy", "train", _MODEL_READERS),
    "metrics": RunFile("metrics.csv", "evaluate", ("report",)),
    "run_log": RunFile("run.log", "run", ()),
}


def run_path(out_dir, name: str, **fields) -> str:
    """The path below `out_dir` of RUN_FILES[name], its placeholders filled from `fields`."""
    return os.path.join(out_dir, *RUN_FILES[name].path.format(**fields).split("/"))


def file_name(name: str) -> str:
    """The last part of RUN_FILES[name]'s path: the file's name in the directory a loader is given."""
    return RUN_FILES[name].path.rsplit("/", 1)[-1]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write `<path>.tmp` (text: utf-8, `newline=""`) and `os.replace` it onto `path` on a clean exit.

    The parent directory is created if missing. On any exception, interrupts
    included, the temp file is removed and the exception re-raised.
    """
    tmp = os.fspath(path) + ".tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
              list: "an array of integers"}


def fits(value, kind) -> bool:
    """Whether a value read from TOML or JSON fits a field of `kind`: a bool is not an int, an int
    fits a float, and a list holds ints."""
    if kind is list:
        return isinstance(value, list) and all(fits(v, int) for v in value)
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind


def write_json(obj, path) -> None:
    """Write `obj` as indented, key-sorted JSON with a trailing newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """Read what write_json wrote; a file that is not JSON is a FormatError naming `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError("%s: not JSON: %s" % (path, exc)) from None


def read_manifest(path, fields: dict, kinds, kind=None) -> dict:
    """The fields of the JSON manifest `path`, read by check_fields: a string `kind` and those of
    `fields`. Its kind must be one of `kinds`, and `kind` when the caller gives the kind its path holds."""
    manifest = check_fields(read_json(path), {"kind": str, **fields}, path)
    if manifest["kind"] not in kinds:
        raise FormatError("%s: kind must be one of %s, got %r" % (path, ", ".join(kinds), manifest["kind"]))
    if kind is not None and manifest["kind"] != kind:
        raise FormatError("%s: kind must be %r for this path, got %r" % (path, kind, manifest["kind"]))
    return manifest


def check_fields(obj, fields: dict, path, prefix: str = "") -> dict:
    """The values of `obj`, a JSON object with exactly the keys of `fields`, each checked by its kind:
    a type the value must `fit`, a dict of a nested object's fields, or a reader called as
    reader(value, path, key) that returns the value to keep (id_positions). Anything else is a
    FormatError naming `path` and the key, dotted below `prefix`."""
    if not isinstance(obj, dict):
        raise FormatError("%s: %s must be a JSON object" % (path, prefix[:-1] or "the file"))
    unknown, missing = obj.keys() - fields.keys(), fields.keys() - obj.keys()
    if unknown or missing:
        raise FormatError("%s: %s key %s%s" % (path, "unknown" if unknown else "missing", prefix,
                                               min(unknown or missing)))
    values = {}
    for key, kind in fields.items():
        name, value = prefix + key, obj[key]
        if isinstance(kind, dict):
            value = check_fields(value, kind, path, name + ".")
        elif not isinstance(kind, type):
            value = kind(value, path, name)
        elif not fits(value, kind):
            raise FormatError("%s: %s must be %s, got %r" % (path, name, TYPE_NAMES[kind], value))
        values[key] = value
    return values


def read_lines(path):
    """Yield (line number, line without its newline) per line of a UTF-8 text file.

    A byte sequence that is not UTF-8 is a FormatError naming the path and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
            return
        except UnicodeDecodeError as exc:
            reason = exc.reason
    # the decoder fails a chunk at a time: find the line again, each bad byte escaped to U+DC80..U+DCFF
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lineno = next(n for n, line in enumerate(fh, start=1) if re.search("[\udc80-\udcff]", line))
    raise FormatError("%s: line %d: not UTF-8: %s" % (path, lineno, reason))


def write_rows(path, rows, sep: str = "\t") -> None:
    """Write one line per row, its fields' `str()` joined by `sep`: the inverse of parse_rows.

    Every row is a tuple as wide as the first; a float's `str()` reads back as the same float.
    """
    rows = iter(rows)
    first = next(rows, None)
    with atomic_open(path) as fh:
        if first is not None:
            line = sep.join(["%s"] * len(first)) + "\n"  # %s formats a field as str() does
            fh.writelines(line % row for row in itertools.chain([first], rows))


class ID(str):
    """The column type of an id in `parse_rows`: a string that must not be empty."""


def read_rows(path, columns: dict, key=()):
    """Yield (line number, fields) per line of a tab-separated artifact; see parse_rows.

    A run never writes one of these artifacts empty, so a file with no rows is a
    FormatError naming the path.
    """
    rows = parse_rows(path, columns, read_lines(path), "\t", key)
    first = next(rows, None)
    if first is None:
        raise FormatError("%s: no rows" % path)
    return itertools.chain([first], rows)


def parse_rows(path, columns: dict, lines, sep: str, key=()):
    """Yield (line number, fields) per (line number, line) of `lines` from `path`, split at `sep`.

    `columns` maps each column's name to its type (ID, str, int or float), in column order, and
    each field is converted by its type. Another number of fields, an empty ID field, a field its
    type rejects, or a row whose values in the `key` columns repeat an earlier row's is a
    FormatError naming the path and line.
    """
    names, kinds = list(columns), list(columns.values())
    ids = [n for n, kind in enumerate(kinds) if kind is ID]
    typed = [(n, kind) for n, kind in enumerate(kinds) if kind not in (str, ID)]
    keyed, seen = operator.itemgetter(*map(names.index, key)) if key else None, set()
    for lineno, line in lines:
        fields = line.split(sep)
        if len(fields) != len(names):
            raise FormatError("%s: line %d: expected %d columns" % (path, lineno, len(names)))
        empty = [names[n] for n in ids if not fields[n]] if "" in fields else ()
        if empty:
            raise FormatError("%s: line %d: %s must not be empty" % (path, lineno, empty[0]))
        try:
            for n, kind in typed:
                fields[n] = kind(fields[n])
        except ValueError:  # n and kind are the rejected field's
            raise FormatError("%s: line %d: %s must be %s, got %r" % (path, lineno, names[n],
                              "an integer" if kind is int else "a number", fields[n])) from None
        if keyed:
            value = keyed(fields)
            if value in seen:
                raise listed_twice(path, lineno, key, [fields[names.index(name)] for name in key])
            seen.add(value)
        yield lineno, fields


def listed_twice(path, lineno: int, key, values) -> FormatError:
    """The FormatError of a row whose `values` in the `key` columns repeat an earlier row's."""
    named = ", ".join("%s %s" % pair for pair in zip(key, values))
    return FormatError("%s: line %d: %s is listed twice" % (path, lineno, named))


def id_positions(ids, path, key: str) -> dict[str, int]:
    """{id: position} of the id list persisted under `key` in the JSON file `path`; anything but a
    list of distinct strings is a FormatError naming the path, the key and any repeated id."""
    if not isinstance(ids, list) or not all(isinstance(a, str) for a in ids):
        raise FormatError("%s: %s must be a list of ids" % (path, key))
    positions = {a: p for p, a in enumerate(ids)}
    if len(positions) < len(ids):
        repeated = sorted(a for a, n in Counter(ids).items() if n > 1)
        raise FormatError("%s: %s lists %s more than once" % (path, key, ", ".join(repeated)))
    return positions


def save_matrix(values, path) -> None:
    """Write a 2-d float64 matrix as a row-major `.npy` file."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("save_matrix expects a 2-d array, got ndim=%d" % arr.ndim)
    with atomic_open(path, "wb") as fh:
        np.save(fh, arr, allow_pickle=False)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix; anything else is a FormatError naming `path`."""
    with open(path, "rb") as fh:
        try:
            arr = np.load(fh, allow_pickle=False)
        except _UNREADABLE as exc:
            raise FormatError("%s: not a .npy matrix: %s" % (path, exc)) from None
        if not isinstance(arr, np.ndarray):  # an .npz archive
            arr.close()
            raise FormatError("%s: expected a 2-d float64 matrix, got an .npz archive" % path)
    if not (arr.ndim == 2 and arr.dtype == np.float64):
        raise FormatError("%s: expected a 2-d float64 matrix" % path)
    return arr


def save_csr(matrix: CSRMatrix, path) -> None:
    """Write a CSRMatrix as an uncompressed `.npz` that scipy.sparse.load_npz reads as csr.

    `indices` and `indptr` are int32 when every column and nnz fit, as
    scipy.sparse.save_npz writes them; `load_csr` widens them again.
    """
    index_dtype = np.int32 if max(matrix.shape[1], matrix.nnz) <= np.iinfo(np.int32).max else np.int64
    with atomic_open(path, "wb") as fh:
        np.savez(
            fh,
            data=matrix.data,
            indices=matrix.indices.astype(index_dtype),
            indptr=matrix.indptr.astype(index_dtype),
            shape=np.array(matrix.shape, dtype=np.int64),
            format=b"csr",
        )


def load_csr(path) -> CSRMatrix:
    """Read a csr `.npz` written by save_csr or scipy.sparse.save_npz.

    An archive that cannot be read (truncated, or a member that fails its
    CRC), a missing key, another sparse format, an indptr that does not run
    from 0 to len(data) without decreasing over shape[0] + 1 entries, or a
    column outside [0, shape[1]) is a FormatError naming `path`.
    """
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except _UNREADABLE as exc:
            raise FormatError("%s: not an .npz archive: %s" % (path, exc)) from None
        if isinstance(archive, np.ndarray):
            raise FormatError("%s: expected an .npz archive, got a .npy array" % path)
        with archive:
            missing = [key for key in _CSR_KEYS if key not in archive.files]
            if missing:
                raise FormatError("%s: missing key(s) %s" % (path, ", ".join(missing)))
            try:
                arrays = {key: archive[key] for key in _CSR_KEYS}
            except _UNREADABLE as exc:
                raise FormatError("%s: unreadable array: %s" % (path, exc)) from None
    fmt = arrays["format"]
    if not (fmt.shape == () and fmt.item() in (b"csr", "csr")):
        raise FormatError("%s: expected csr format, got %r" % (path, fmt))
    shape, data, indices, indptr = (arrays[key] for key in ("shape", "data", "indices", "indptr"))
    if not (shape.shape == (2,) and shape.dtype.kind in "iu" and np.all(shape >= 0)):
        raise FormatError("%s: shape must be two non-negative integers, got %r" % (path, shape))
    n, m = (int(v) for v in shape)
    if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu" or data.dtype.kind != "f":
        raise FormatError("%s: expected float data and integer indices and indptr" % path)
    if data.ndim != 1 or indices.shape != data.shape:
        raise FormatError("%s: data and indices must be 1-d of one length" % path)
    if not (
        indptr.shape == (n + 1,) and indptr[0] == 0 and indptr[-1] == data.size and np.all(np.diff(indptr) >= 0)
    ):
        raise FormatError(
            "%s: indptr must run from 0 to len(data) = %d without decreasing, over %d entries"
            % (path, data.size, n + 1)
        )
    if indices.size and not (indices.min() >= 0 and indices.max() < m):
        raise FormatError("%s: column index outside [0, %d)" % (path, m))
    return CSRMatrix(data, indices, indptr, (n, m))
