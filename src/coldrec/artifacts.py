"""How a stage artifact reaches disk: whole, or not at all.

Every file a stage writes goes through `atomic_open`, so a stage that raises,
or a process killed mid-write, leaves the previous file (or none) at the
final path, never a truncated one. Dense matrices are `.npy` files.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import FormatError


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


def write_json(obj, path) -> None:
    """Write `obj` as indented, key-sorted JSON with a trailing newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_rows(path, columns: int):
    """Yield (line number, fields) per line of a tab-separated artifact of `columns` fields.

    A line with another number of fields is a ValueError naming the path and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != columns:
                raise ValueError("%s: line %d: expected %d columns" % (path, lineno, columns))
            yield lineno, fields


def save_matrix(values, path) -> None:
    """Write a 2-d float64 matrix as a row-major `.npy` file."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("save_matrix expects a 2-d array, got ndim=%d" % arr.ndim)
    with atomic_open(path, "wb") as fh:
        np.save(fh, arr, allow_pickle=False)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix; anything else is a FormatError naming `path`."""
    try:
        arr = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise FormatError("%s: not a .npy matrix: %s" % (path, exc)) from None
    if not (isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.dtype == np.float64):
        raise FormatError("%s: expected a 2-d float64 matrix" % path)
    return arr
