import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_solve

from coldrec import numerics
from coldrec.errors import SingularSystemError
from coldrec.numerics import cosine_distance, ridge_factor, ridge_solve

from oracles import as_csr, recorded_factorizations, score


def normal_equations_oracle(design, targets, ridge):
    """Independent reference: explicitly formed and inverted normal equations."""
    design = np.asarray(design, dtype=float)
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    return np.linalg.inv(gram) @ (design.T @ np.asarray(targets, dtype=float))


class TestRidgeSolve:
    def test_identity_design_zero_ridge_returns_targets(self):
        targets = np.arange(15.0).reshape(5, 3)
        out = ridge_solve(np.eye(5), targets, 0.0)
        np.testing.assert_allclose(out, targets, rtol=0, atol=1e-12)

    def test_norm_shrinks_monotonically_with_ridge(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(20, 6))
        targets = rng.normal(size=(20, 2))
        norms = [np.linalg.norm(ridge_solve(design, targets, lam)) for lam in (1.0, 10.0, 100.0)]
        assert norms[0] > norms[1] > norms[2]

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(20, 8))
        targets = rng.normal(size=(20, 3))
        out = ridge_solve(design, targets, 0.5)
        expected = normal_equations_oracle(design, targets, 0.5)
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) <= 1e-8

    def test_random_instances_against_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(5, 41))
            k = int(rng.integers(1, 13))
            d = int(rng.integers(1, 5))
            lam = float(rng.uniform(0.0, 2.0))
            design = rng.normal(size=(n, k))
            targets = rng.normal(size=(n, d))
            out = ridge_solve(design, targets, lam)
            expected = normal_equations_oracle(design, targets, lam)
            assert np.linalg.norm(out - expected) / max(np.linalg.norm(expected), 1e-30) <= 1e-8

    @pytest.mark.parametrize("shape", [(12, 4), (4, 12), (30, 90)], ids=["primal", "dual", "dual_wide"])
    def test_sparse_design_matches_dense(self, monkeypatch, shape):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=shape) * (rng.random(size=shape) < 0.4)
        targets = rng.normal(size=(shape[0], 2))
        calls = recorded_factorizations(monkeypatch)
        out_sparse = ridge_solve(as_csr(dense), targets, 0.3)
        out_dense = ridge_solve(dense, targets, 0.3)
        assert [s.shape for s, _ in calls] == [(min(shape),) * 2] * 2
        np.testing.assert_allclose(out_sparse, out_dense, rtol=1e-12, atol=0)

    def test_singular_at_zero_ridge_raises(self):
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSystemError):
            ridge_solve(design, np.ones(3), 0.0)

    def test_non_finite_inputs_raise(self):
        with pytest.raises(ValueError):
            ridge_solve(np.array([[np.nan, 0.0]]), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            ridge_solve(np.ones((2, 2)), np.array([np.inf, 1.0]), 1.0)

    def test_negative_ridge_raises(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones(2), -0.1)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            ridge_solve(np.ones((3, 2)), np.ones(4), 0.1)

    def test_solution_minimizes_ridge_objective(self):
        # perturbing the solution in any coordinate must not decrease the objective
        rng = np.random.default_rng(17)
        design = rng.normal(size=(15, 4))
        targets = rng.normal(size=(15, 2))
        lam = 0.7
        sol = ridge_solve(design, targets, lam)

        def objective(w):
            resid = design @ w - targets
            return np.sum(resid * resid) + lam * np.sum(w * w)

        base = objective(sol)
        for _ in range(10):
            delta = np.zeros_like(sol)
            delta[rng.integers(sol.shape[0]), rng.integers(sol.shape[1])] = rng.choice([-1e-4, 1e-4])
            assert objective(sol + delta) >= base - 1e-12


class TestRidgeFactor:
    @pytest.mark.parametrize("as_sparse", [False, True])
    @pytest.mark.parametrize("target_shape", [(14,), (14, 3)])
    def test_equals_ridge_solve_bit_for_bit(self, as_sparse, target_shape):
        rng = np.random.default_rng(23)
        dense = rng.normal(size=(14, 5)) * (rng.random(size=(14, 5)) < 0.5)
        design = as_csr(dense) if as_sparse else dense
        targets = rng.normal(size=target_shape)
        np.testing.assert_array_equal(
            ridge_factor(design, 0.4)(targets), ridge_solve(design, targets, 0.4)
        )

    @pytest.mark.parametrize("shape", [(14, 5), (5, 14)], ids=["primal", "dual"])
    def test_one_call_builds_one_transpose(self, monkeypatch, shape):
        calls = []
        build = numerics.CSRMatrix.T.fget
        monkeypatch.setattr(numerics.CSRMatrix, "T", property(lambda self: calls.append(self) or build(self)))
        rng = np.random.default_rng(29)
        design = as_csr(rng.normal(size=shape) * (rng.random(size=shape) < 0.5))
        solve = ridge_factor(design, 0.4)
        for _ in range(3):
            solve(rng.normal(size=(shape[0], 2)))
        assert calls == [design]

    def test_one_factor_serves_many_targets(self):
        rng = np.random.default_rng(31)
        design = rng.normal(size=(18, 6))
        solve = ridge_factor(design, 0.2)
        for _ in range(3):
            targets = rng.normal(size=(18, 2))
            np.testing.assert_array_equal(solve(targets), ridge_solve(design, targets, 0.2))


class TestRidgeFactorPaths:
    @pytest.mark.parametrize("as_sparse", [False, True])
    def test_primal_factor_equals_identity_sum(self, monkeypatch, as_sparse):
        rng = np.random.default_rng(41)
        dense = rng.normal(size=(16, 6)) * (rng.random(size=(16, 6)) < 0.6)
        design = as_csr(dense) if as_sparse else dense
        calls = recorded_factorizations(monkeypatch)
        ridge_factor(design, 0.3)
        ref = sparse.csr_matrix(dense)
        gram = (ref.T @ ref).toarray() if as_sparse else dense.T @ dense
        expected = np.linalg.cholesky(gram + 0.3 * np.eye(6))
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], gram + 0.3 * np.eye(6))
        assert np.array_equal(calls[0][1], expected)

    def test_jitter_retry_equals_identity_sum(self, monkeypatch):
        # at a ridge below rounding the rank-1 Gram stays singular, so the
        # factorization is retried with the trace-scaled jitter on the diagonal
        design = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        calls = recorded_factorizations(monkeypatch)
        solve = ridge_factor(design, 1e-300)
        gram = design.T @ design
        system = gram + 1e-300 * np.eye(2)
        retried = system + 1e-10 * np.trace(gram) / 2 * np.eye(2)
        assert len(calls) == 2 and calls[0][1] is None
        assert np.array_equal(calls[0][0], system)
        assert np.array_equal(calls[1][0], retried)
        assert np.array_equal(calls[1][1], np.linalg.cholesky(retried))
        assert np.all(np.isfinite(solve(np.ones(3))))

    @pytest.mark.parametrize("as_sparse", [False, True])
    @pytest.mark.parametrize("target_shape", [(9,), (9, 3)])
    def test_dual_matches_normal_equations_oracle(self, as_sparse, target_shape):
        rng = np.random.default_rng(43)
        for k, ridge in ((20, 0.5), (40, 1e-3), (200, 2.0)):
            dense = rng.normal(size=(9, k)) * (rng.random(size=(9, k)) < 0.5)
            design = as_csr(dense) if as_sparse else dense
            targets = rng.normal(size=target_shape)
            out = ridge_factor(design, ridge)(targets)
            expected = normal_equations_oracle(dense, targets, ridge)
            assert out.shape == expected.shape
            assert np.linalg.norm(out - expected) / np.linalg.norm(expected) <= 1e-10

    def test_wide_design_at_zero_ridge_raises(self):
        design = np.random.default_rng(47).normal(size=(3, 7))
        with pytest.raises(SingularSystemError):
            ridge_factor(design, 0.0)

    @pytest.mark.parametrize("as_sparse", [False, True])
    @pytest.mark.parametrize(
        "shape, ridge, size",
        [((5, 9), 0.4, 5), ((12, 5), 0.4, 5), ((6, 6), 0.4, 6), ((5, 9), 0.0, 9)],
    )
    def test_factors_the_smaller_gram(self, monkeypatch, as_sparse, shape, ridge, size):
        dense = np.random.default_rng(53).normal(size=shape)
        design = as_csr(dense) if as_sparse else dense
        calls = recorded_factorizations(monkeypatch)
        try:
            ridge_factor(design, ridge)
        except SingularSystemError:
            assert ridge == 0.0
        assert [s.shape for s, _ in calls] == [(size, size)]


class TestRidgeCholesky:
    """The one rule for a ridge system: its factor, one jitter retry at ridge > 0, or SingularSystemError."""

    def test_definite_system_is_factored_once(self, monkeypatch):
        system = np.array([[4.0, 2.0], [2.0, 3.0]])
        calls = recorded_factorizations(monkeypatch)
        assert np.array_equal(numerics.ridge_cholesky(system.copy(), 0.5), np.linalg.cholesky(system))
        assert len(calls) == 1

    def test_retry_adds_the_trace_scaled_jitter_in_place(self, monkeypatch):
        # a rank-2 Gram under a ridge below rounding: the first Cholesky fails
        gram = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        system = gram + 1e-300 * np.eye(3)
        calls = recorded_factorizations(monkeypatch)
        lower = numerics.ridge_cholesky(system, 1e-300)
        retried = gram + 1e-300 * np.eye(3) + 1e-10 * np.trace(gram) / 3 * np.eye(3)
        assert [factor is None for _, factor in calls] == [True, False]
        assert np.array_equal(calls[1][0], retried)
        assert np.array_equal(system, retried)
        assert np.array_equal(lower, np.linalg.cholesky(retried))

    def test_singular_system_at_zero_ridge_raises_without_retry(self, monkeypatch):
        calls = recorded_factorizations(monkeypatch)
        with pytest.raises(SingularSystemError, match="^normal matrix is singular and no ridge was applied$"):
            numerics.ridge_cholesky(np.ones((2, 2)), 0.0)
        assert len(calls) == 1

    def test_indefinite_system_stays_singular_after_the_retry(self, monkeypatch):
        calls = recorded_factorizations(monkeypatch)
        with pytest.raises(SingularSystemError, match="^normal matrix stayed singular after jitter retry$"):
            numerics.ridge_cholesky(np.array([[1.1, 2.0], [2.0, 1.1]]), 0.1)
        assert len(calls) == 2


class TestBlockedSubstitution:
    """The factor's solver against LAPACK's Cholesky solve, across the block edges."""

    @pytest.mark.parametrize("k", [1, 63, 64, 65, 129, 200])
    @pytest.mark.parametrize("rhs_cols", [None, 3])
    def test_matches_scipy_cho_solve(self, k, rhs_cols):
        rng = np.random.default_rng(59 + k)
        design = rng.normal(size=(2 * k + 3, k))
        lower = np.linalg.cholesky(design.T @ design + 0.5 * np.eye(k))
        rhs = rng.normal(size=(k,) if rhs_cols is None else (k, rhs_cols))
        out = numerics._blocked_substitution(lower)(rhs)
        expected = cho_solve((lower, True), rhs)
        assert out.shape == rhs.shape
        # entries that cancel to near zero are held to the solution's scale
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("k", [1, 63, 64])
    @pytest.mark.parametrize("rhs_cols", [None, 3])
    def test_one_block_solve_is_two_products(self, k, rhs_cols):
        # a system of at most SOLVE_BLOCK rows is one block: inv(L)' (inv(L) rhs), bit for bit
        rng = np.random.default_rng(71 + k)
        design = rng.normal(size=(2 * k + 3, k))
        lower = np.linalg.cholesky(design.T @ design + 0.5 * np.eye(k))
        rhs = rng.normal(size=(k,) if rhs_cols is None else (k, rhs_cols))
        inv = np.tril(np.linalg.inv(lower))
        assert np.array_equal(numerics._blocked_substitution(lower)(rhs), inv.T @ (inv @ rhs))

    def test_solver_holds_only_the_inverse_diagonal_blocks(self):
        # the array data held is at most k * SOLVE_BLOCK numbers; block-row copies of L would hold about k^2
        k = 1000
        rng = np.random.default_rng(73)
        design = rng.normal(size=(k + 10, k))
        lower = np.linalg.cholesky(design.T @ design + np.eye(k))
        tracemalloc.start()
        try:
            substitute = numerics._blocked_substitution(lower)
            peak = tracemalloc.get_traced_memory()[1]
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        held = sum(trace.size for trace in arrays.traces)
        assert held <= k * numerics.SOLVE_BLOCK * 8
        assert peak <= 2 * k * numerics.SOLVE_BLOCK * 8
        assert substitute(np.ones(k)).shape == (k,)

    def test_leaves_rhs_untouched(self):
        rng = np.random.default_rng(61)
        lower = np.linalg.cholesky(np.eye(70) * 2.0 + 0.1)
        rhs = rng.normal(size=(70, 2))
        kept = rhs.copy()
        numerics._blocked_substitution(lower)(rhs)
        assert np.array_equal(rhs, kept)

    @pytest.mark.parametrize("as_sparse", [False, True])
    @pytest.mark.parametrize("size", [63, 64, 65, 129])
    def test_ridge_factor_across_block_edge(self, as_sparse, size):
        # primal: size features under more rows; dual: size rows under more features
        rng = np.random.default_rng(67 + size)
        for shape in ((size + 40, size), (size, size + 40)):
            dense = rng.normal(size=shape) * (rng.random(size=shape) < 0.5)
            design = as_csr(dense) if as_sparse else dense
            targets = rng.normal(size=(shape[0], 4))
            out = ridge_factor(design, 0.7)(targets)
            expected = normal_equations_oracle(dense, targets, 0.7)
            assert np.linalg.norm(out - expected) / np.linalg.norm(expected) <= 1e-10


def csr_pair(dense):
    """The same matrix as a scipy csr_matrix (the oracle) and as a CSRMatrix over its arrays."""
    ref = sparse.csr_matrix(dense)
    return ref, as_csr(dense)


def sparse_dense(rng, shape, density):
    """A random matrix with roughly `density` nonzeros and an all-zero first column and, past one row, first row."""
    dense = rng.normal(size=shape) * (rng.random(size=shape) < density)
    dense[:, :1] = 0.0
    if shape[0] > 1:
        dense[:1] = 0.0
    return dense


# (rows, columns, density): a tall and a wide design, wide_vocab's shape
# (90 x 1152, about 27 nonzeros per row), and degenerate ones.
CSR_SHAPES = [(40, 12, 0.3), (9, 60, 0.2), (90, 1152, 27 / 1152), (5, 4, 0.0), (1, 3, 1.0), (0, 4, 0.5)]


@pytest.mark.parametrize("shape, density", [((n, m), p) for n, m, p in CSR_SHAPES],
                         ids=["tall", "wide", "wide_vocab", "all_zero", "one_row", "no_rows"])
class TestCSRMatrixMatchesScipy:
    """Every CSRMatrix kernel against scipy.sparse, bit for bit where both sum in one order."""

    def test_nnz_shape_and_toarray(self, shape, density):
        ref, ours = csr_pair(sparse_dense(np.random.default_rng(71), shape, density))
        assert ours.nnz == ref.nnz and ours.shape == ref.shape
        assert np.array_equal(ours.toarray(), ref.toarray())

    def test_row_gather_with_repeats_and_empty_rows(self, shape, density):
        rng = np.random.default_rng(73)
        ref, ours = csr_pair(sparse_dense(rng, shape, density))
        picks = [list(rng.integers(0, shape[0], size=2 * shape[0])), [0, 0], []] if shape[0] else [[]]
        for rows in picks:
            taken = ours[rows]
            expected = ref[rows] if rows else sparse.csr_matrix((0, shape[1]))
            assert taken.shape == expected.shape and taken.nnz == expected.nnz
            assert np.array_equal(taken.indptr, expected.indptr)
            assert np.array_equal(taken.toarray(), expected.toarray())

    def test_row(self, shape, density):
        ref, ours = csr_pair(sparse_dense(np.random.default_rng(79), shape, density))
        for r in range(shape[0]):
            assert np.array_equal(ours.row(r), ref[r].toarray().ravel())

    @pytest.mark.parametrize("width", [None, 1, 16])
    def test_matmul(self, shape, density, width):
        rng = np.random.default_rng(83)
        ref, ours = csr_pair(sparse_dense(rng, shape, density))
        operand = rng.normal(size=(shape[1],) if width is None else (shape[1], width))
        for _ in range(2):  # the second call runs on the kept keys
            out = ours @ operand
            assert out.shape == (ref @ operand).shape
            assert np.array_equal(out, ref @ operand)

    @pytest.mark.parametrize("width", [None, 1, 16])
    def test_matmul_by_the_transpose(self, shape, density, width):
        rng = np.random.default_rng(89)
        ref, ours = csr_pair(sparse_dense(rng, shape, density))
        operand = rng.normal(size=(shape[0],) if width is None else (shape[0], width))
        for _ in range(2):
            out = ours.T @ operand
            assert out.shape == (ref.T @ operand).shape
            assert np.array_equal(out, ref.T @ operand)

    @pytest.mark.parametrize("chunk", [1 << 18, 5, 1])
    def test_grams(self, monkeypatch, shape, density, chunk):
        # small chunks split the pair buffer over many output-row blocks
        monkeypatch.setattr(numerics, "GRAM_CHUNK", chunk)
        ref, ours = csr_pair(sparse_dense(np.random.default_rng(97), shape, density))
        assert np.array_equal(ours.T @ ours, (ref.T @ ref).toarray())
        assert np.array_equal(ours @ ours.T, (ref @ ref.T).toarray())
        # a product with another matrix, whose output is not square
        ref_other, other = csr_pair(sparse_dense(np.random.default_rng(98), (shape[1], 5), 0.4))
        assert np.array_equal(ours @ other, (ref @ ref_other).toarray())

    def test_transpose_of_the_transpose_has_the_arrays(self, shape, density):
        ref, ours = csr_pair(sparse_dense(np.random.default_rng(101), shape, density))
        transpose = ours.T
        assert transpose.shape == shape[::-1] and transpose.nnz == ref.nnz
        assert np.array_equal(transpose.toarray(), ref.T.toarray())
        back = transpose.T
        assert back.shape == ours.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(back, name), getattr(ours, name))


def test_csr_matmul_rejects_a_mismatched_operand():
    ours = as_csr(np.eye(3, 4))
    with pytest.raises(ValueError):
        ours @ np.ones(3)
    with pytest.raises(ValueError):
        ours.T @ np.ones((4, 2))
    with pytest.raises(ValueError):
        ours @ as_csr(np.ones((3, 2)))
    with pytest.raises(ValueError):
        ours.T @ ours.T


class TestScore:
    def test_all_zero_vectors(self):
        assert score([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_identical_basis_vectors(self):
        e1 = [1.0, 0.0, 0.0]
        assert score(e1, e1, e1) == 3.0

    def test_hand_inner_products(self):
        assert score([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]) == 2.0

    def test_symmetric_under_argument_permutation(self):
        rng = np.random.default_rng(23)
        u, x, y = rng.normal(size=(3, 5))
        base = score(u, x, y)
        for perm in ((u, y, x), (x, u, y), (x, y, u), (y, u, x), (y, x, u)):
            assert score(*perm) == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            score([1.0, 2.0], [1.0], [1.0])


class TestCosineDistance:
    def test_identical_vectors(self):
        # 3-4-5 vector keeps every intermediate exact in float64
        assert cosine_distance([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_opposite_vectors(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_zero_norm_convention(self):
        assert cosine_distance([0.0, 0.0], [1.0, 2.0]) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            beta = float(rng.uniform(0.1, 50.0))
            assert cosine_distance(beta * a, b) == pytest.approx(cosine_distance(a, b), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            d = cosine_distance(rng.normal(size=4), rng.normal(size=4))
            assert 0.0 <= d <= 2.0 + 1e-12

