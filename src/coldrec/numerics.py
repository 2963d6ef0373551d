"""Small dense linear-algebra core: ridge solves and vector similarity.

The content mappings of the models module are ridge fits against a fixed
design, factored once per trainer by `ridge_factor`, which factors the
smaller of the two Gram matrices: the n x n GG' + ridge*I when the design
has fewer rows than columns and ridge > 0, else the k x k G'G + ridge*I.
It factors with numpy's Cholesky and solves by a blocked triangular
substitution, so a run never imports scipy.linalg (scipy is used for its
sparse matrices only). The batched ALS row update solves its small systems
itself and falls back to `ridge_solve` only for rows whose normal matrix
fails to factor; `ridge_solve` is also its test oracle. The diversity
metric reduces to `cosine_distance`. These kernels are kept in one place
with strict input validation; the module opens no files.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import cholesky
from scipy import sparse

from .errors import SingularSystemError

# Rows per diagonal block of the blocked triangular substitution in `ridge_factor`.
SOLVE_BLOCK = 64


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

    The Gram is factored by numpy's Cholesky, and `solve` substitutes through
    the factor in blocks of SOLVE_BLOCK rows (`_blocked_substitution`).

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
    # Ridge and jitter go onto the Gram's diagonal in place: cholesky
    # returns a new factor, so after a failure `gram` still holds the ridged system.
    k = gram.shape[0]
    jitter = 1e-10 * np.trace(gram) / max(k, 1)
    gram.flat[:: k + 1] += ridge
    try:
        lower = cholesky(gram)
    except np.linalg.LinAlgError:
        if ridge <= 0:
            raise SingularSystemError(
                "normal matrix is singular and no ridge was applied"
            ) from None
        gram.flat[:: k + 1] += jitter
        try:
            lower = cholesky(gram)
        except np.linalg.LinAlgError:
            raise SingularSystemError(
                "normal matrix stayed singular after jitter retry"
            ) from None
    substitute = _blocked_substitution(lower)

    def solve(targets) -> np.ndarray:
        targets = np.asarray(targets, dtype=np.float64)
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        if design.shape[0] != targets.shape[0]:
            raise ValueError("design and targets row counts differ")
        if dual:
            return np.asarray(design.T @ substitute(targets), dtype=np.float64)
        return substitute(np.asarray(design.T @ targets, dtype=np.float64))

    return solve


def _blocked_substitution(lower: np.ndarray):
    """Return `substitute(rhs)` solving L L' x = rhs for the lower Cholesky factor L.

    L is cut into diagonal blocks of SOLVE_BLOCK rows, each inverted once
    here. Block row i of the forward pass is then the one matrix
    [-inv(L_ii) L_i,<i | inv(L_ii)], and block row i of the back pass
    [inv(L_ii)' | -inv(L_ii)' L_>i,i'], so a solve is one matmul per block
    and pass, 2 * ceil(k / SOLVE_BLOCK) in all. Together the block rows hold
    about as many numbers as the dense L. `rhs` may be (k,) or (k x d).
    """
    k = lower.shape[0]
    forward, backward = [], []
    for start in range(0, k, SOLVE_BLOCK):
        stop = min(start + SOLVE_BLOCK, k)
        inv = np.tril(np.linalg.inv(lower[start:stop, start:stop]))
        forward.append((start, stop, np.hstack([-(inv @ lower[start:stop, :start]), inv])))
        backward.append((start, stop, np.hstack([inv.T, -(lower[stop:, start:stop] @ inv).T])))
    backward.reverse()

    def substitute(rhs) -> np.ndarray:
        out = np.array(rhs, dtype=np.float64)
        for start, stop, block_row in forward:
            out[start:stop] = block_row @ out[:stop]
        for start, stop, block_row in backward:
            out[start:stop] = block_row @ out[start:]
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

