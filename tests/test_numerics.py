import numpy as np
import pytest
from scipy import sparse

from scipy.linalg import cho_factor

from coldrec import numerics
from coldrec.errors import FormatError, SingularSystemError
from coldrec.numerics import (
    cosine_distance,
    load_matrix,
    ridge_factor,
    ridge_solve,
    save_matrix,
    score,
)


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

    def test_sparse_design_matches_dense(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(12, 4)) * (rng.random(size=(12, 4)) < 0.4)
        targets = rng.normal(size=(12, 2))
        out_sparse = ridge_solve(sparse.csr_matrix(dense), targets, 0.3)
        out_dense = ridge_solve(dense, targets, 0.3)
        np.testing.assert_allclose(out_sparse, out_dense, atol=1e-12)

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
        design = sparse.csr_matrix(dense) if as_sparse else dense
        targets = rng.normal(size=target_shape)
        np.testing.assert_array_equal(
            ridge_factor(design, 0.4)(targets), ridge_solve(design, targets, 0.4)
        )

    def test_one_factor_serves_many_targets(self):
        rng = np.random.default_rng(31)
        design = rng.normal(size=(18, 6))
        solve = ridge_factor(design, 0.2)
        for _ in range(3):
            targets = rng.normal(size=(18, 2))
            np.testing.assert_array_equal(solve(targets), ridge_solve(design, targets, 0.2))


def recorded_factorizations(monkeypatch):
    """Patch numerics.cho_factor to record (copy of the system, factor or None) per call."""
    calls = []

    def recording(a, **kwargs):
        system = np.array(a)
        try:
            factor = cho_factor(a, **kwargs)
        except np.linalg.LinAlgError:
            calls.append((system, None))
            raise
        calls.append((system, factor))
        return factor

    monkeypatch.setattr(numerics, "cho_factor", recording)
    return calls


class TestRidgeFactorPaths:
    @pytest.mark.parametrize("as_sparse", [False, True])
    def test_primal_factor_equals_identity_sum(self, monkeypatch, as_sparse):
        rng = np.random.default_rng(41)
        dense = rng.normal(size=(16, 6)) * (rng.random(size=(16, 6)) < 0.6)
        design = sparse.csr_matrix(dense) if as_sparse else dense
        calls = recorded_factorizations(monkeypatch)
        ridge_factor(design, 0.3)
        gram = np.asarray((design.T @ design).todense()) if as_sparse else dense.T @ dense
        expected = cho_factor(gram + 0.3 * np.eye(6), lower=True)
        assert len(calls) == 1
        assert np.array_equal(calls[0][1][0], expected[0]) and calls[0][1][1] is True

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
        assert np.array_equal(calls[1][1][0], cho_factor(retried, lower=True)[0])
        assert np.all(np.isfinite(solve(np.ones(3))))

    @pytest.mark.parametrize("as_sparse", [False, True])
    @pytest.mark.parametrize("target_shape", [(9,), (9, 3)])
    def test_dual_matches_normal_equations_oracle(self, as_sparse, target_shape):
        rng = np.random.default_rng(43)
        for k, ridge in ((20, 0.5), (40, 1e-3), (200, 2.0)):
            dense = rng.normal(size=(9, k)) * (rng.random(size=(9, k)) < 0.5)
            design = sparse.csr_matrix(dense) if as_sparse else dense
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
        design = sparse.csr_matrix(dense) if as_sparse else dense
        calls = recorded_factorizations(monkeypatch)
        try:
            ridge_factor(design, ridge)
        except SingularSystemError:
            assert ridge == 0.0
        assert [s.shape for s, _ in calls] == [(size, size)]


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


class TestMatrixRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        mat = rng.normal(size=(7, 3))
        path = tmp_path / "m.mat"
        save_matrix(mat, path)
        np.testing.assert_array_equal(load_matrix(path), mat)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "trunc.mat"
        save_matrix(np.ones((2, 2)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_non_2d_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.ones(3), tmp_path / "v.mat")
