"""Small dense linear-algebra core: ridge solves, triplet scoring, vector similarity.

The content mappings of the models module are ridge fits against a fixed
design, factored once per trainer by `ridge_factor`, which factors the
smaller of the two Gram matrices: the n x n GG' + ridge*I when the design
has fewer rows than columns and ridge > 0, else the k x k G'G + ridge*I.
The batched ALS row update solves its small systems itself and falls back
to `ridge_solve` only for rows whose normal matrix fails to factor;
`ridge_solve` is also its test oracle. `score` is the scalar triplet
affinity that ranking computes in batch, and the diversity metric reduces
to `cosine_distance`. These kernels are kept in one place with strict input
validation.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .errors import FormatError, SingularSystemError

MATRIX_MAGIC = b"CRMX"


def ridge_factor(design, ridge: float):
    """Factor the smaller ridge Gram of `design` once; return a solver for any targets.

    The returned `solve(targets)` gives W = (G'G + ridge*I)^-1 G'R for the
    fixed design G, so a design that is refit against changing targets (the
    content mapping of every trainer iteration) forms and factors its Gram
    only once. `design` may be dense (n x k) or scipy-sparse; `targets` may be
    (n,) or (n x d), and W comes back with the matching shape.

    With ridge > 0 and fewer rows than columns (n < k: few trained articles,
    a wide vocabulary) the n x n Gram GG' + ridge*I is factored instead and
    W = G'(GG' + ridge*I)^-1 R, the dual form of the same solution (Saunders,
    Gammerman & Vovk, ICML 1998). Otherwise, and always at ridge = 0, the
    k x k Gram G'G + ridge*I is factored.

    On a Cholesky failure with ridge > 0 the factorization of that system is
    retried once with a trace-scaled jitter of 1e-10 added to the diagonal
    (near-singular normal matrices from sparse feature blocks); at ridge = 0
    a failure raises SingularSystemError immediately.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0, got %r" % ridge)
    if sparse.issparse(design):
        if not np.all(np.isfinite(design.data)):
            raise ValueError("design contains non-finite values")
    else:
        design = np.asarray(design, dtype=np.float64)
        if not np.all(np.isfinite(design)):
            raise ValueError("design contains non-finite values")
    dual = ridge > 0 and design.shape[0] < design.shape[1]
    gram = design @ design.T if dual else design.T @ design
    if sparse.issparse(gram):
        gram = np.asarray(gram.toarray(), dtype=np.float64)
    # Ridge and jitter go onto the Gram's diagonal in place: cho_factor
    # factors a copy, so after a failure `gram` still holds the ridged system.
    k = gram.shape[0]
    jitter = 1e-10 * np.trace(gram) / max(k, 1)
    gram.flat[:: k + 1] += ridge
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError:
        if ridge <= 0:
            raise SingularSystemError(
                "normal matrix is singular and no ridge was applied"
            ) from None
        gram.flat[:: k + 1] += jitter
        try:
            factor = cho_factor(gram, lower=True)
        except np.linalg.LinAlgError:
            raise SingularSystemError(
                "normal matrix stayed singular after jitter retry"
            ) from None

    def solve(targets) -> np.ndarray:
        targets = np.asarray(targets, dtype=np.float64)
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        if design.shape[0] != targets.shape[0]:
            raise ValueError("design and targets row counts differ")
        if dual:
            return np.asarray(design.T @ cho_solve(factor, targets), dtype=np.float64)
        return cho_solve(factor, np.asarray(design.T @ targets, dtype=np.float64))

    return solve


def ridge_solve(design, targets, ridge: float) -> np.ndarray:
    """Solve the ridge problem min_W ||design @ W - targets||_F^2 + ridge * ||W||_F^2.

    One-shot form of `ridge_factor(design, ridge)(targets)`, with the same
    inputs, errors and bits.
    """
    return ridge_factor(design, ridge)(targets)


def cho_solve_stacked(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L' w_r = b_r for a stack of lower Cholesky factors (r, k, k) and rhs (r, k).

    Forward then back substitution, one column at a time across all systems.
    """
    k = rhs.shape[1]
    half = np.empty_like(rhs)
    for c in range(k):
        half[:, c] = (
            rhs[:, c] - np.einsum("rj,rj->r", chol[:, c, :c], half[:, :c])
        ) / chol[:, c, c]
    out = np.empty_like(rhs)
    for c in range(k - 1, -1, -1):
        out[:, c] = (
            half[:, c] - np.einsum("rj,rj->r", chol[:, c + 1 :, c], out[:, c + 1 :])
        ) / chol[:, c, c]
    return out


def score(user_vec, last_vec, next_vec) -> float:
    """Triplet affinity: the symmetric sum of the three pairwise inner products."""
    u = np.asarray(user_vec, dtype=np.float64)
    x = np.asarray(last_vec, dtype=np.float64)
    y = np.asarray(next_vec, dtype=np.float64)
    if not (u.shape == x.shape == y.shape) or u.ndim != 1:
        raise ValueError(
            "score expects three 1-d vectors of equal length, got shapes %s %s %s"
            % (u.shape, x.shape, y.shape)
        )
    return float(np.dot(u, x) + np.dot(u, y) + np.dot(x, y))


def cosine_distance(a, b) -> float:
    """1 - cos(a, b), in [0, 2]. Zero-norm vectors are treated as distance 1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    return float(1.0 - np.dot(a, b) / (norm_a * norm_b))


def save_matrix(values: np.ndarray, path) -> None:
    """Write a 2-d float64 matrix: b"CRMX", two little-endian uint64 dims, row-major data."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 2:
        raise ValueError("save_matrix expects a 2-d array, got ndim=%d" % arr.ndim)
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MATRIX_MAGIC:
        raise FormatError("%s: bad magic bytes, expected CRMX" % path)
    if len(blob) < 20:
        raise FormatError("%s: truncated header" % path)
    rows, cols = struct.unpack_from("<QQ", blob, 4)
    if len(blob) != 20 + 8 * rows * cols:
        raise FormatError(
            "%s: payload size mismatch for %dx%d matrix" % (path, rows, cols)
        )
    data = np.frombuffer(blob, dtype="<f8", offset=20, count=rows * cols)
    return data.reshape(rows, cols).copy()
