"""Small linear-algebra core: CSR content rows, ridge solves and vector similarity.

TF-IDF rows are held as a `CSRMatrix`: plain numpy arrays in compressed
sparse row form behind numpy's `A[rows]`, `A.T` and `A @ B`, whose products
sum in scipy.sparse's accumulation order. `ridge_factor` forms the smaller
ridge Gram of a dense or CSR design by those operators, once per trainer,
factors it and solves by a blocked triangular substitution that reads the
factor where it lies, so a run imports no scipy at all. The batched ALS row
update factors its small systems with one stacked Cholesky and solves them
with `cho_solve_stacked`. One rule factors a ridge system that fails to:
`ridge_cholesky`, numpy's Cholesky retried once with a trace-scaled jitter,
which `ridge_factor` calls and the ALS update calls per row when its stacked
Cholesky fails. `ridge_solve`, the one-shot form of `ridge_factor`, is the
tests' oracle. The diversity metric reduces to `cosine_distance`. These
kernels are kept in one place with strict input validation; the module
opens no files.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import cholesky

from .errors import SingularSystemError

# Rows per diagonal block of the blocked triangular substitution in `ridge_factor`.
SOLVE_BLOCK = 64

# Products per chunk of a CSR-by-CSR product's pair buffer (and cells per output block).
GRAM_CHUNK = 1 << 18


class CSRMatrix:
    """Compressed sparse rows: row r holds data[indptr[r]:indptr[r+1]] at columns indices[...].

    `row` and `toarray` expect each column at most once per row, as
    `features.transform` builds them. `A[rows]` gathers rows by position.
    `A.T` is the transpose, a new CSRMatrix sorted stably by column on each
    access, so its rows list A's rows ascending; a caller that reuses it
    holds it, as `ridge_factor` does. `A @ B`,
    for a dense or a CSRMatrix B, is dense: `np.bincount` sums each entry's
    terms in the order A stores them, the order scipy.sparse uses, so
    `A @ x`, `A.T @ x`, `A.T @ A` and `A @ A.T` are bit-identical to scipy's.
    The bincount keys of `A @ dense` depend only on the pattern and the
    operand's width, so they are kept per width: a design refit every
    iteration pays for them once.
    """

    def __init__(self, data, indices, indptr, shape):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._value_rows = None
        self._keys: dict = {}

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def T(self) -> "CSRMatrix":
        order = np.argsort(self.indices, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.indices, minlength=self.shape[1]))))
        return CSRMatrix(self.data[order], self._row_of_values()[order], indptr, self.shape[::-1])

    def _row_of_values(self) -> np.ndarray:
        if self._value_rows is None:
            self._value_rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._value_rows

    def __matmul__(self, other) -> np.ndarray:
        """self @ other for a CSRMatrix or a dense (m,) or (m x d) operand."""
        if not isinstance(other, CSRMatrix):
            other = np.asarray(other, dtype=np.float64)
        if other.shape[0] != self.shape[1]:
            raise ValueError("matmul: %s @ %s" % (self.shape, other.shape))
        if isinstance(other, CSRMatrix):
            return _pair_gram(self, other)
        width = None if other.ndim == 1 else other.shape[1]
        if width not in self._keys:  # the output slot of every term
            rows = self._row_of_values()
            self._keys[width] = rows if width is None else (rows[:, None] * width + np.arange(width)).ravel()
        terms = other.take(self.indices, axis=0)  # take and an in-place product: fewer copies than a[idx] * v
        terms *= self.data if width is None else self.data[:, None]
        size = self.shape[0] if width is None else self.shape[0] * width
        out = np.bincount(self._keys[width], weights=terms.ravel(), minlength=size)
        return out if width is None else out.reshape(self.shape[0], width)

    def __getitem__(self, rows) -> "CSRMatrix":
        """The rows at positions `rows`, in that order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        pos = _ranges(starts, lengths)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return CSRMatrix(self.data[pos], self.indices[pos], indptr, (rows.size, self.shape[1]))

    def row(self, r: int) -> np.ndarray:
        """Row r as a dense 1-d array."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        out = np.zeros(self.shape[1])
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row_of_values(), self.indices] = self.data
        return out


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated ranges starts[e] .. starts[e] + lengths[e] - 1, in order."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def _pair_gram(outer: CSRMatrix, inner: CSRMatrix) -> np.ndarray:
    """The dense product outer @ inner: row o sums outer[o, p] * inner[p, q] into column q.

    p runs over row o's stored entries in order, and q over the stored
    entries of inner's row p, so each output entry sums its terms in outer's
    storage order. Output rows are processed in chunks of about GRAM_CHUNK
    terms and GRAM_CHUNK cells; a chunk holds whole rows, so no entry's sum
    crosses a chunk.
    """
    size, width = outer.shape[0], inner.shape[1]
    lengths = inner.indptr[outer.indices + 1] - inner.indptr[outer.indices]
    terms_before = np.concatenate(([0], np.cumsum(lengths)))[outer.indptr]
    out = np.empty((size, width))
    stop = 0
    while stop < size:
        start = stop
        stop = int(np.searchsorted(terms_before, terms_before[start] + GRAM_CHUNK, side="right")) - 1
        stop = min(max(stop, start + 1), start + max(1, GRAM_CHUNK // max(width, 1)), size)
        lo, hi = outer.indptr[start], outer.indptr[stop]
        counts = lengths[lo:hi]
        pos = _ranges(inner.indptr[outer.indices[lo:hi]], counts)
        out_row = np.repeat(np.repeat(np.arange(stop - start), np.diff(outer.indptr[start : stop + 1])), counts)
        block = np.bincount(
            out_row * width + inner.indices[pos],
            weights=np.repeat(outer.data[lo:hi], counts) * inner.data[pos],
            minlength=(stop - start) * width,
        )
        out[start:stop] = block.reshape(stop - start, width)
    return out


def ridge_factor(design, ridge: float):
    """Factor the smaller ridge Gram of `design` once; return a solver for any targets.

    The returned `solve(targets)` gives W = (G'G + ridge*I)^-1 G'R for the
    fixed design G, so a design that is refit against changing targets (the
    content mapping of every trainer iteration) forms and factors its Gram
    only once. `design` may be dense (n x k) or a CSRMatrix; `targets` may be
    (n,) or (n x d), and W comes back with the matching shape.

    With ridge > 0 and fewer rows than columns (n < k: few trained articles,
    a wide vocabulary) the n x n Gram GG' + ridge*I is factored instead and
    W = G'(GG' + ridge*I)^-1 R, the dual form of the same solution (Saunders,
    Gammerman & Vovk, ICML 1998). Otherwise, and always at ridge = 0, the
    k x k Gram G'G + ridge*I is factored.

    The ridged Gram is factored by `ridge_cholesky`, and `solve` substitutes
    through the factor in blocks of SOLVE_BLOCK rows (`_blocked_substitution`).
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0, got %r" % ridge)
    csr = isinstance(design, CSRMatrix)
    if not csr:
        design = np.asarray(design, dtype=np.float64)
    if not np.all(np.isfinite(design.data if csr else design)):
        raise ValueError("design contains non-finite values")
    dual = ridge > 0 and design.shape[0] < design.shape[1]
    transpose = design.T  # built once; a CSR transpose keeps its bincount keys across solves
    gram = design @ transpose if dual else transpose @ design
    gram.flat[:: gram.shape[0] + 1] += ridge
    substitute = _blocked_substitution(ridge_cholesky(gram, ridge))

    def solve(targets) -> np.ndarray:
        targets = np.asarray(targets, dtype=np.float64)
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        if design.shape[0] != targets.shape[0]:
            raise ValueError("design and targets row counts differ")
        if dual:
            return transpose @ substitute(targets)
        return substitute(transpose @ targets)

    return solve


def ridge_cholesky(system: np.ndarray, ridge: float) -> np.ndarray:
    """The lower Cholesky factor of `system`, a k x k Gram with `ridge` already on its diagonal.

    The one rule for a ridge system that fails to factor, shared by
    `ridge_factor` and the ALS half-sweep: with ridge > 0 it is retried once
    with 1e-10 * trace(Gram) / k added to the diagonal in place, the Gram's
    trace taken as trace(system) - k * ridge (near-singular normal matrices
    from sparse feature blocks). At ridge = 0, or when the retry fails too,
    it raises SingularSystemError.
    """
    try:
        return cholesky(system)
    except np.linalg.LinAlgError:
        if ridge <= 0:
            raise SingularSystemError("normal matrix is singular and no ridge was applied") from None
    k = system.shape[0]
    system.flat[:: k + 1] += 1e-10 * (np.trace(system) - k * ridge) / k
    try:
        return cholesky(system)
    except np.linalg.LinAlgError:
        raise SingularSystemError("normal matrix stayed singular after jitter retry") from None


def _blocked_substitution(lower: np.ndarray):
    """Return `substitute(rhs)` solving L L' x = rhs for the lower Cholesky factor L.

    L is cut into diagonal blocks of SOLVE_BLOCK rows, each inverted once
    here; the solve reads the off-diagonal blocks where they lie in L. Block
    i of the forward pass is inv(L_ii) (rhs_i - L_i,<i y_<i), and of the
    back pass inv(L_ii)' (y_i - L_>i,i' x_>i), so the solver holds only L
    and the inverse diagonal blocks. `rhs` may be (k,) or (k x d).
    """
    k = lower.shape[0]
    blocks = []
    for start in range(0, k, SOLVE_BLOCK):
        stop = min(start + SOLVE_BLOCK, k)
        blocks.append((start, stop, np.tril(np.linalg.inv(lower[start:stop, start:stop]))))

    def substitute(rhs) -> np.ndarray:
        out = np.array(rhs, dtype=np.float64)
        for start, stop, inv in blocks:
            out[start:stop] = inv @ (out[start:stop] - lower[start:stop, :start] @ out[:start])
        for start, stop, inv in reversed(blocks):
            out[start:stop] = inv.T @ (out[start:stop] - lower[stop:, start:stop].T @ out[stop:])
        return out

    return substitute


def ridge_solve(design, targets, ridge: float) -> np.ndarray:
    """Solve the ridge problem min_W ||design @ W - targets||_F^2 + ridge * ||W||_F^2.

    One-shot form of `ridge_factor(design, ridge)(targets)`, with the same
    inputs, errors and bits.
    """
    return ridge_factor(design, ridge)(targets)


def cho_solve_stacked(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L' w_r = b_r for a stack of lower Cholesky factors (r, k, k) and rhs (r, k).

    Forward then back substitution, one column at a time across all systems.
    The ALS half-sweep keeps this column loop because its systems are many
    and small: for 360 systems of 16 x 16 (one BLAS thread, 2-core Xeon) it
    takes 0.35 ms, a stacked `np.linalg.solve` 1.1 ms, and a stacked
    `np.linalg.inv` of the factors plus two products 3.3 ms.
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


def cosine_distance(a, b) -> float:
    """1 - cos(a, b), in [0, 2]. Zero-norm vectors are treated as distance 1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    return float(1.0 - np.dot(a, b) / (norm_a * norm_b))

