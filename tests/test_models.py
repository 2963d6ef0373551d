import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coldrec import models, numerics
from coldrec.artifacts import load_matrix, save_matrix
from coldrec.errors import DivergenceError, EmptyInputError, FormatError, MissingArticlesError, SingularSystemError
from coldrec.features import FeatureMatrix
from coldrec.metrics import candidate_universe, rank_test_queries
from coldrec.models import (
    FactorModel,
    _als_update,
    _group_rows,
    MODEL_KINDS,
    Hyperparams,
    Instances,
    almm_train,
    article_vectors,
    forbes_train,
    load_model,
    oord_train,
    predict,
    sample_negatives,
    save_model,
)
from coldrec.numerics import ridge_solve
from coldrec.splits import DataSplit
from coldrec.transitions import Triplet, TripletSet

from oracles import (
    Row,
    as_csr,
    eager_forbes,
    forbes_instance_gradients,
    forbes_instance_loss,
    forbes_objective_oracle,
    instance_rows,
    objective,
    recorded_factorizations,
    scalar_predict,
    scalar_ranks,
    scalar_sample_negatives,
    score,
    top_lists,
)


def make_triplets(rows):
    """rows: (user, last, next, confidence)."""
    return TripletSet([Triplet(u, i, j, c) for u, i, j, c in rows])


def ids(prefix, n):
    """The n ids "<prefix>0" .. "<prefix><n - 1>"."""
    return ["%s%d" % (prefix, k) for k in range(n)]


def make_instances(rows, n_users=None, n_articles=None):
    """An Instances record from (u, i, j, target, weight) row tuples, indexing the ids "u<k>" of
    n_users users and "n<k>" of n_articles articles (by default, up to the largest code)."""
    u, i, j, target, weight = zip(*rows)
    n_users = max(u) + 1 if n_users is None else n_users
    n_articles = max(i + j) + 1 if n_articles is None else n_articles
    return Instances(u, i, j, target, weight, ids("u", n_users), ids("n", n_articles))


def random_rows(rng, n_users, n_articles, n_positives, negatives=1):
    """Valid instance rows plus matching dense-index bookkeeping."""
    rows = []
    seen = set()
    while sum(1 for x in rows if x.target == 1.0) < n_positives:
        u = int(rng.integers(n_users))
        i = int(rng.integers(n_articles))
        j = int(rng.integers(n_articles))
        if i == j or (u, i, j) in seen:
            continue
        seen.add((u, i, j))
        rows.append(Row(u, i, j, 1.0, 1.0 + 0.1 * int(rng.integers(1, 4))))
        for _ in range(negatives):
            j_neg = int(rng.integers(n_articles))
            if j_neg != i and j_neg != j and (u, i, j_neg) not in seen:
                rows.append(Row(u, i, j_neg, 0.0, 1.0))
    return rows


def random_instances(rng, n_users, n_articles, n_positives, negatives=1):
    """random_rows as an Instances record over n_users users and n_articles articles."""
    return make_instances(random_rows(rng, n_users, n_articles, n_positives, negatives), n_users, n_articles)


def zero_model(n_users, n_articles, dim, m, kind="almm", hyper=None):
    hyper = hyper or Hyperparams(latent_dim=dim, reg_user=0, reg_last=0, reg_next=0)
    return FactorModel(
        kind=kind,
        hyper=hyper,
        user_factors=np.zeros((n_users, dim)),
        last_factors=np.zeros((n_articles, dim)),
        next_factors=np.zeros((n_articles, dim)),
        last_mapping=np.zeros((m, dim)),
        next_mapping=np.zeros((m, dim)),
        users={"u%d" % k: k for k in range(n_users)},
        articles={"n%d" % k: k for k in range(n_articles)},
    )


def dense_features(ids, matrix):
    return FeatureMatrix(
        matrix=np.asarray(matrix, dtype=float),
        kind="external",
        row_index={a: r for r, a in enumerate(ids)},
    )


def assert_same_instances(got, want):
    for name in Row._fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestSampleNegatives:
    def test_constraints_hold(self):
        triplets = make_triplets(
            [("u", "N0", "N1", 1.1)] + [("z", "N%d" % k, "N%d" % (k + 1), 1.1) for k in range(1, 9)]
        )
        instances = sample_negatives(triplets, 4, seed=3)
        positives = instances.target == 1.0
        negatives = instances.target == 0.0
        assert np.count_nonzero(positives) == len(triplets)
        first = negatives & (instances.u == triplets.users["u"])
        assert np.count_nonzero(first) == 4
        keys = list(zip(instances.u.tolist(), instances.i.tolist(), instances.j.tolist()))
        pos_keys = {key for key, pos in zip(keys, positives) if pos}
        assert np.all(instances.j[negatives] != instances.i[negatives])
        assert not any(key in pos_keys for key, neg in zip(keys, negatives) if neg)
        assert np.all(instances.weight[negatives] == 1.0)

    def test_same_seed_is_deterministic(self):
        triplets = make_triplets(
            [("u", "N%d" % k, "N%d" % (k + 1), 1.2) for k in range(6)]
        )
        assert_same_instances(sample_negatives(triplets, 3, 11), sample_negatives(triplets, 3, 11))

    def test_tiny_universe_raises(self):
        with pytest.raises(ValueError):
            sample_negatives(make_triplets([("u", "A", "B", 1.1)]), 2, 0)

    def test_positives_carry_confidence(self):
        triplets = make_triplets([("u", "A", "B", 1.3), ("u", "B", "C", 1.1)])
        instances = sample_negatives(triplets, 1, 0)
        weights = instances.weight[instances.target == 1.0].tolist()
        assert weights == [1.3, 1.1]


class TestSampleNegativesMatchesScalarDraws:
    """sample_negatives (batched draws) against scalar_sample_negatives, array for array."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_three_article_universe_with_shortfall(self, seed):
        # u's positives (A, B) and (A, C) leave no valid negative, so their 8
        # slots are dropped after 100 rejections each; v's positives each have
        # exactly one valid negative
        triplets = make_triplets(
            [("u", "A", "B", 1.1), ("u", "A", "C", 1.2), ("v", "B", "C", 1.3), ("v", "C", "A", 1.4)]
        )
        got = sample_negatives(triplets, 4, seed)
        assert len(triplets.articles) == 3
        assert len(got) == 4 * (4 + 1) - 8
        assert_same_instances(got, make_instances(scalar_sample_negatives(triplets, 4, seed)))

    @pytest.mark.parametrize("seed", [0, 3, 11, 99])
    def test_refill_path(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        rows = []
        while len(rows) < 30:
            i, j = rng.choice(6, size=2, replace=False)
            rows.append(("u%d" % rng.integers(3), "N%d" % i, "N%d" % j, 1.0 + 0.1 * int(rng.integers(1, 4))))
        triplets = make_triplets(rows)
        want = make_instances(scalar_sample_negatives(triplets, 3, seed))
        sizes = []
        default_rng = np.random.default_rng

        class RecordingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, n, size=None):
                sizes.append(size)
                return self.rng.integers(n, size=size)

        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        got = sample_negatives(triplets, 3, seed)
        assert len(sizes) > 1  # rejections used up the first batch
        assert_same_instances(got, want)


class TestInstances:
    def test_misaligned_columns_raise(self):
        with pytest.raises(ValueError, match="one length"):
            Instances(u=[0, 1], i=[0, 1], j=[1, 2], target=[1.0, 0.0], weight=[1.0], users=["a", "b"],
                      articles=["x", "y", "z"])

    def test_non_1d_columns_raise(self):
        with pytest.raises(ValueError, match="1-d"):
            Instances(u=[[0]], i=[[0]], j=[[1]], target=[[1.0]], weight=[[1.0]], users=["a"], articles=["x", "y"])

    def test_columns_are_read_only_copies(self):
        weight = np.array([1.3, 1.0])
        users, articles = ["a"], ["x", "y", "z"]
        instances = Instances(u=[0, 0], i=[0, 0], j=[1, 2], target=[1.0, 0.0], weight=weight, users=users,
                              articles=articles)
        with pytest.raises(ValueError):
            instances.weight[0] = 2.0
        weight[0] = 2.0
        users.append("b")
        assert instances.weight.tolist() == [1.3, 1.0]
        assert instances.u.dtype == np.int64 and instances.target.dtype == np.float64
        assert (instances.users, instances.articles) == (("a",), ("x", "y", "z"))

    @pytest.mark.parametrize(
        "column, code, message",
        [
            ("u", 3, "user code 3 outside [0, 3)"),
            ("u", -1, "user code -1 outside [0, 3)"),
            ("i", 7, "last article code 7 outside [0, 7)"),
            ("j", -2, "next article code -2 outside [0, 7)"),
        ],
    )
    def test_code_outside_its_id_list_raises_when_built(self, column, code, message):
        columns = {"u": [0, 1, 2], "i": [0, 3, 6], "j": [1, 4, 5], "target": [1.0, 0.0, 1.0], "weight": [1.0] * 3}
        columns[column][1] = code
        with pytest.raises(ValueError) as err:
            Instances(**columns, users=ids("u", 3), articles=ids("n", 7))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "users, articles, message",
        [
            (["a", "a"], ["x", "y", "z"], "users repeat an id: 2 ids, 1 distinct"),
            (["a", "b"], ["x", "y", "x"], "articles repeat an id: 3 ids, 2 distinct"),
        ],
    )
    def test_repeated_id_raises_when_built(self, users, articles, message):
        # a repeated id would train factor rows that the model's id map cannot all name
        with pytest.raises(ValueError) as err:
            Instances(u=[0, 1, 0], i=[0, 1, 2], j=[1, 2, 0], target=[1.0] * 3, weight=[1.0] * 3, users=users,
                      articles=articles)
        assert str(err.value) == message

    @pytest.mark.parametrize("trainer", [almm_train, oord_train, forbes_train], ids=["almm", "oord", "forbes"])
    def test_empty_record_builds_and_no_trainer_takes_it(self, trainer):
        instances = Instances(u=[], i=[], j=[], target=[], weight=[], users=[], articles=["x"])
        assert len(instances) == 0 and instances.users == ()
        with pytest.raises(EmptyInputError, match="no training instances"):
            trainer(instances, np.ones((1, 2)), Hyperparams(latent_dim=2))

    def test_sampled_record_carries_the_train_side_ids(self):
        triplets = make_triplets([("u", "A", "B", 1.3), ("v", "B", "C", 1.1)])
        instances = sample_negatives(triplets, 1, 0)
        assert instances.users == ("u", "v")
        assert instances.articles == ("A", "B", "C")

    def test_sampled_record_is_read_only(self):
        triplets = make_triplets([("u", "A", "B", 1.3), ("u", "B", "C", 1.1)])
        instances = sample_negatives(triplets, 1, 0)
        for name in Row._fields:
            with pytest.raises(ValueError):
                getattr(instances, name)[0] = 0


class TestObjective:
    def test_zero_factors_sum_of_positive_confidences(self):
        instances = make_instances([
            (0, 0, 1, 1.0, 1.3),
            (0, 0, 2, 0.0, 1.0),
            (1, 1, 2, 1.0, 1.1),
        ])
        model = zero_model(2, 3, 2, m=2)
        assert objective(model, instances) == pytest.approx(1.3 + 1.1, rel=1e-12)

    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(8)
        model = zero_model(2, 3, 2, m=2)
        model.user_factors = rng.normal(size=(2, 2))
        model.last_factors = rng.normal(size=(3, 2))
        model.next_factors = rng.normal(size=(3, 2))
        rows = []
        for u, i, j in [(0, 0, 1), (1, 2, 0)]:
            fit = score(model.user_factors[u], model.last_factors[i], model.next_factors[j])
            rows.append((u, i, j, fit, 1.4))
        assert objective(model, make_instances(rows)) == pytest.approx(0.0, abs=1e-18)

    def test_matches_hand_summed_oracle(self):
        rng = np.random.default_rng(21)
        hyper = Hyperparams(latent_dim=2, reg_user=0.3, reg_last=0.2, reg_next=0.1)
        model = zero_model(2, 3, 2, m=2, hyper=hyper)
        model.user_factors = rng.normal(size=(2, 2))
        model.last_factors = rng.normal(size=(3, 2))
        model.next_factors = rng.normal(size=(3, 2))
        rows = random_rows(rng, 2, 3, 4)
        expected = 0.0
        for inst in rows:
            fit = score(
                model.user_factors[inst.u],
                model.last_factors[inst.i],
                model.next_factors[inst.j],
            )
            expected += inst.weight * (inst.target - fit) ** 2
        expected += 0.3 * np.sum(model.user_factors**2)
        expected += 0.2 * np.sum(model.last_factors**2)
        expected += 0.1 * np.sum(model.next_factors**2)
        assert objective(model, make_instances(rows)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_blocks_keep_the_bits_of_one_pass(self, monkeypatch, dim):
        rng = np.random.default_rng(40 + dim)
        U, X, Y = rng.normal(size=(4, dim)), rng.normal(size=(7, dim)), rng.normal(size=(7, dim))
        instances = random_instances(rng, 4, 7, 12, negatives=2)
        uu, ii, jj = instances.u, instances.i, instances.j
        pred = sum(np.einsum("nd,nd->n", a, b) for a, b in ((U[uu], X[ii]), (U[uu], Y[jj]), (X[ii], Y[jj])))
        resid = instances.target - pred
        one_pass = float(np.dot(instances.weight * resid, resid))
        assert models._data_loss(U, X, Y, instances) == one_pass
        for block_rows in (1, 2, 5):
            monkeypatch.setattr(models, "_LOSS_CHUNK_VALUES", block_rows * dim)
            assert models._data_loss(U, X, Y, instances) == one_pass


def per_row_als_oracle(target, rows_of, left, left_idx, right, right_idx, tt, cc, reg):
    """The scalar update: one weighted ridge_solve per row that has instances."""
    out = target.copy()
    for row in range(out.shape[0]):
        members = np.flatnonzero(rows_of == row)
        if members.size == 0:
            continue
        lf = left[left_idx[members]]
        rf = right[right_idx[members]]
        w = np.sqrt(cc[members])
        resid = tt[members] - np.einsum("nd,nd->n", lf, rf)
        out[row] = ridge_solve((lf + rf) * w[:, None], resid * w, reg)
    return out


def als_update(target, rows_of, left, left_idx, right, right_idx, tt, cc, reg):
    """_als_update over the rows `rows_of` names, grouped by _group_rows, through a workspace of its own."""
    groups = _group_rows(rows_of)
    workspace = models._als_workspace(rows_of.size, target.shape[1], groups[2].size)
    return _als_update(target, groups, left, left_idx, right, right_idx, tt, cc, reg, workspace)


class TestBatchedAlsUpdate:
    def test_matches_per_row_ridge_solve(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            dim = int(rng.integers(1, 7))
            # row 0 and the last two rows get no instances, row 1 exactly one,
            # rows 2..5 many, in shuffled order
            rows_of = np.concatenate([[1], rng.integers(2, 6, size=int(rng.integers(8, 40)))])
            rng.shuffle(rows_of)
            n = rows_of.size
            left = rng.normal(size=(5, dim))
            right = rng.normal(size=(7, dim))
            left_idx = rng.integers(5, size=n)
            right_idx = rng.integers(7, size=n)
            tt = (rng.random(n) < 0.3).astype(float)
            cc = rng.uniform(0.5, 3.0, size=n)
            reg = float(rng.uniform(0.01, 1.0))
            target = rng.normal(size=(8, dim))
            expected = per_row_als_oracle(target, rows_of, left, left_idx, right, right_idx, tt, cc, reg)
            als_update(target, rows_of, left, left_idx, right, right_idx, tt, cc, reg)
            np.testing.assert_allclose(target, expected, rtol=0, atol=1e-10)

    def test_rank_deficient_row_falls_back_to_jitter(self, monkeypatch):
        # g = (1, 1, 0) with confidence 1 for the single instance of row 1: at a
        # ridge below rounding its normal matrix is exactly singular, so the
        # stacked Cholesky fails, each row's system goes through ridge_cholesky,
        # and only row 1's takes the jitter retry
        left = np.array([[0.5, 0.5, 0.0]])
        right = np.array([[0.5, 0.5, 0.0], [0.3, -0.2, 0.9], [-0.7, 0.4, 0.1], [0.2, 0.8, -0.5]])
        rows_of = np.array([0, 1, 0, 0])
        left_idx = np.zeros(4, dtype=np.int64)
        right_idx = np.array([1, 0, 2, 3])
        tt = np.array([1.0, 1.0, 0.0, 0.0])
        cc = np.array([1.5, 1.0, 1.0, 1.0])
        target = np.zeros((2, 3))
        expected = per_row_als_oracle(target, rows_of, left, left_idx, right, right_idx, tt, cc, 1e-30)
        calls = recorded_factorizations(monkeypatch)
        als_update(target, rows_of, left, left_idx, right, right_idx, tt, cc, 1e-30)
        g = np.array([1.0, 1.0, 0.0])
        singular = np.outer(g, g) + 1e-30 * np.eye(3)
        failed = [k for k, (_, factor) in enumerate(calls) if factor is None]
        assert len(calls) == 3 and len(failed) == 1  # each row once, then row 1's retry
        assert np.array_equal(calls[failed[0]][0], singular)
        assert np.array_equal(calls[failed[0] + 1][0], singular + 1e-10 * 2.0 / 3 * np.eye(3))
        np.testing.assert_allclose(target, expected, rtol=1e-10)

    def test_rank_deficient_row_at_zero_reg_raises(self):
        left = np.array([[0.5, 0.5, 0.0]])
        right = np.array([[0.5, 0.5, 0.0]])
        zeros = np.zeros(1, dtype=np.int64)
        with pytest.raises(SingularSystemError):
            als_update(np.zeros((1, 3)), zeros, left, zeros, right, zeros, np.ones(1), np.ones(1), 0.0)


def per_row_group_rows(indices):
    """_group_rows as of 17d3529: instances sorted by row only; the grouping of per_row_als_update."""
    order = np.argsort(indices, kind="stable")
    rows, bounds = np.unique(indices[order], return_index=True)
    return order, bounds, rows


def per_row_als_update(target, groups, left, left_idx, right, right_idx, tt, cc, reg):
    """_als_update as of 17d3529: one small matmul per row builds its normal matrix; the exact oracle."""
    order, bounds, rows = groups
    if rows.size == 0:
        return
    ends = np.append(bounds[1:], order.size)
    dim = target.shape[1]
    lf = np.take(left, np.take(left_idx, order), axis=0)
    rf = np.take(right, np.take(right_idx, order), axis=0)
    resid = np.take(tt, order) - np.einsum("nd,nd->n", lf, rf)
    conf = np.take(cc, order)
    design = np.add(lf, rf, out=lf)
    weighted = np.multiply(design, conf[:, None], out=rf)
    systems = np.empty((rows.size, dim, dim))
    for k, (lo, hi) in enumerate(zip(bounds.tolist(), ends.tolist())):
        systems[k] = weighted[lo:hi].T @ design[lo:hi]
    diag = np.arange(dim)
    systems[:, diag, diag] += reg
    rhs = np.add.reduceat(np.multiply(weighted, resid[:, None], out=rf), bounds, axis=0)

    solved = np.ones(rows.size, dtype=bool)
    try:
        chol = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        chol = np.empty_like(systems)
        for k in range(rows.size):
            try:
                chol[k] = np.linalg.cholesky(systems[k])
            except np.linalg.LinAlgError:
                solved[k] = False
                chol[k] = np.eye(dim)
    target[rows[solved]] = numerics.cho_solve_stacked(chol, rhs)[solved]
    for k in np.flatnonzero(~solved):
        lo, hi = bounds[k], ends[k]
        w = np.sqrt(conf[lo:hi])
        target[rows[k]] = ridge_solve(design[lo:hi] * w[:, None], resid[lo:hi] * w, reg)


def run_lengths(groups):
    order, bounds, rows, _ = groups
    return np.diff(np.append(bounds, order.size))


class TestGroupRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_runs_sorted_by_length_then_row(self, seed):
        rng = np.random.default_rng(seed)
        indices = rng.integers(int(rng.integers(1, 12)), size=int(rng.integers(1, 60)))
        order, bounds, rows, buckets = groups = _group_rows(indices)
        lengths = run_lengths(groups)
        assert np.array_equal(np.sort(order), np.arange(indices.size))
        assert sorted(rows.tolist()) == np.unique(indices).tolist()
        for k, row in enumerate(rows.tolist()):
            run = order[bounds[k] : bounds[k] + lengths[k]]
            assert np.array_equal(run, np.flatnonzero(indices == row))  # contiguous, in instance order
        keys = list(zip(lengths.tolist(), rows.tolist()))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(6))
    def test_buckets_tile_the_runs(self, seed):
        rng = np.random.default_rng(seed)
        indices = rng.integers(int(rng.integers(1, 12)), size=int(rng.integers(1, 60)))
        order, bounds, rows, buckets = groups = _group_rows(indices)
        lengths = run_lengths(groups)
        assert [length for _, _, length in buckets] == np.unique(lengths).tolist()
        row_pos = inst_pos = 0
        for members, span, length in buckets:
            assert (members.start, span.start) == (row_pos, inst_pos)
            assert members.stop > members.start
            assert np.all(lengths[members] == length)
            assert span.stop - span.start == (members.stop - members.start) * length
            assert span.start == bounds[members.start]
            row_pos, inst_pos = members.stop, span.stop
        assert (row_pos, inst_pos) == (rows.size, order.size)

    def test_empty_indices(self):
        order, bounds, rows, buckets = _group_rows(np.zeros(0, dtype=np.int64))
        assert order.size == bounds.size == rows.size == 0
        assert buckets == []


class TestBucketedAlsUpdateMatchesPerRowLoop:
    """_als_update against per_row_als_update (17d3529), target for target, bit for bit."""

    @staticmethod
    def rows_of(layout, rng):
        if layout == "one_length":  # every row with instances has 3
            rows_of = np.repeat(rng.permutation(6), 3)
        elif layout == "distinct_lengths":  # row k has k + 1
            rows_of = np.repeat(np.arange(6), np.arange(1, 7))
        elif layout == "single_instance":
            rows_of = rng.permutation(6)
        else:  # "mixed": lengths 1 to 4, some repeated
            rows_of = rng.integers(6, size=14)
        rng.shuffle(rows_of)
        return rows_of

    LAYOUTS = ("one_length", "distinct_lengths", "single_instance", "mixed")

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_target_equal_and_loss_returned(self, layout, dim):
        rng = np.random.default_rng([self.LAYOUTS.index(layout), dim])
        for _ in range(5):
            rows_of = self.rows_of(layout, rng) + 1  # row 0 and rows 7, 8 get no instances
            n = rows_of.size
            left = rng.normal(size=(5, dim))
            right = rng.normal(size=(7, dim))
            left_idx = rng.integers(5, size=n)
            right_idx = rng.integers(7, size=n)
            tt = (rng.random(n) < 0.3).astype(float)
            cc = rng.uniform(0.5, 3.0, size=n)
            reg = float(rng.uniform(0.01, 1.0))
            start = rng.normal(size=(9, dim))
            want = start.copy()
            groups = per_row_group_rows(rows_of)
            per_row_als_update(want, groups, left, left_idx, right, right_idx, tt, cc, reg)
            got = start.copy()
            loss = als_update(got, rows_of, left, left_idx, right, right_idx, tt, cc, reg)
            assert np.array_equal(got, want)
            lf, rf = left[left_idx], right[right_idx]
            resid = tt - np.einsum("nd,nd->n", lf, rf)
            scale = float(np.dot(cc * resid, resid))  # the data loss before the update
            resid -= np.einsum("nd,nd->n", got[rows_of], lf + rf)
            assert loss == pytest.approx(float(np.dot(cc * resid, resid)), rel=0, abs=1e-12 * scale)

    def test_no_instances_leaves_target(self):
        target = np.arange(6.0).reshape(3, 2)
        empty = np.zeros(0, dtype=np.int64)
        loss = als_update(target, empty, np.ones((2, 2)), empty, np.ones((2, 2)), empty,
                          np.zeros(0), np.zeros(0), 0.1)
        assert loss == 0.0
        assert np.array_equal(target, np.arange(6.0).reshape(3, 2))


class TestAlsWorkspaceAndSharedGroups:
    """One buffer set per ALS trainer call, one row grouping per Instances record."""

    @staticmethod
    def spoiled_workspace(n, dim, max_rows):
        """A workspace whose every entry is NaN (or -1 for the index), so a read before a write shows."""
        workspace = models._als_workspace(n, dim, max_rows)
        for buffer in workspace:
            buffer[...] = np.nan if buffer.dtype.kind == "f" else -1
        return workspace

    def test_half_sweeps_through_one_workspace_match_the_per_row_loop(self):
        rng = np.random.default_rng(83)
        dim = 3
        layouts = TestBucketedAlsUpdateMatchesPerRowLoop.LAYOUTS
        cases = [TestBucketedAlsUpdateMatchesPerRowLoop.rows_of(layout, rng) + 1 for layout in layouts]
        # fewer and more rows and instances than the layouts, largest first
        cases += [rng.integers(n_rows, size=int(rng.integers(1, 30))) for n_rows in (9, 2, 1, 8, 4)]
        cases.sort(key=lambda rows_of: -np.unique(rows_of).size)
        row_counts = [np.unique(rows_of).size for rows_of in cases]
        assert len(set(row_counts)) >= 4
        workspace = self.spoiled_workspace(max(c.size for c in cases), dim, max(row_counts))
        for rows_of in cases:
            n = rows_of.size
            left = rng.normal(size=(5, dim))
            right = rng.normal(size=(7, dim))
            left_idx = rng.integers(5, size=n)
            right_idx = rng.integers(7, size=n)
            tt = (rng.random(n) < 0.3).astype(float)
            cc = rng.uniform(0.5, 3.0, size=n)
            reg = float(rng.uniform(0.01, 1.0))
            start = rng.normal(size=(10, dim))
            want = start.copy()
            per_row_als_update(want, per_row_group_rows(rows_of), left, left_idx, right, right_idx, tt, cc, reg)
            alone = start.copy()
            loss = als_update(alone, rows_of, left, left_idx, right, right_idx, tt, cc, reg)
            got = start.copy()
            shared = _als_update(got, _group_rows(rows_of), left, left_idx, right, right_idx, tt, cc, reg,
                                 workspace=workspace)
            assert np.array_equal(got, want)
            assert shared == loss

    @staticmethod
    def problem(seed=41):
        rng = np.random.default_rng(seed)
        instances = random_instances(rng, 4, 7, 12, negatives=2)
        content = rng.normal(size=(7, 3))
        hyper = Hyperparams(latent_dim=3, iterations=3, seed=seed)
        return instances, content, hyper

    def test_almm_and_oord_group_a_record_once(self, monkeypatch):
        instances, content, hyper = self.problem()
        grouped = []
        group_rows = models._group_rows
        monkeypatch.setattr(models, "_group_rows", lambda codes: grouped.append(codes) or group_rows(codes))
        almm_train(instances, content, hyper)
        oord_train(instances, content, hyper)
        assert [id(codes) for codes in grouped] == [id(instances.u), id(instances.i), id(instances.j)]
        for grouping in instances.groups:
            assert not any(array.flags.writeable for array in grouping[:3])

    def test_oord_is_byte_identical_before_and_after_almm_on_one_record(self):
        instances, content, hyper = self.problem()
        first = oord_train(instances, content, hyper)
        almm_train(instances, content, hyper)
        again = oord_train(instances, content, hyper)
        fresh = oord_train(Instances(instances.u, instances.i, instances.j, instances.target, instances.weight,
                                     instances.users, instances.articles), content, hyper)
        for model in (again, fresh):
            for attr in ("user_factors", "last_factors", "next_factors", "last_mapping", "next_mapping"):
                assert getattr(model, attr).tobytes() == getattr(first, attr).tobytes()
            assert model.loss_trace == first.loss_trace

    @pytest.mark.parametrize("trainer", [almm_train, oord_train, forbes_train], ids=["almm", "oord", "forbes"])
    @pytest.mark.parametrize("rows", [6, 8])
    def test_content_rows_other_than_the_articles_raise_before_any_sweep(self, monkeypatch, trainer, rows):
        instances, content, hyper = self.problem()
        assert len(instances.articles) == 7
        content = np.vstack((content, content))[:rows]
        sweeps = []
        monkeypatch.setattr(models, "_als_update", lambda *args, **kwargs: sweeps.append(args))
        monkeypatch.setattr(models, "_sgd_epoch", lambda *args: sweeps.append(args))
        with pytest.raises(ValueError) as err:
            trainer(instances, content, hyper)
        assert str(err.value) == "content has %d rows, expected one per article of the instances: 7" % rows
        assert sweeps == []


class TestAlsTraceFromTheUpdate:
    """Each half-sweep's trace entry is the full objective at the factors it leaves."""

    @staticmethod
    def record_objectives(monkeypatch, instances, hyper):
        seen = []
        update = models._als_update

        def recording(target, groups, left, left_idx, right, right_idx, tt, cc, reg, workspace=None):
            loss = update(target, groups, left, left_idx, right, right_idx, tt, cc, reg, workspace)
            # half-sweeps run users, last, next: the target is U, X, then Y
            U, X, Y = [(target, left, right), (left, target, right), (left, right, target)][len(seen) % 3]
            model = zero_model(U.shape[0], X.shape[0], U.shape[1], m=1, hyper=hyper)
            model.user_factors, model.last_factors, model.next_factors = U.copy(), X.copy(), Y.copy()
            seen.append(objective(model, instances))
            return loss

        monkeypatch.setattr(models, "_als_update", recording)
        return seen

    @pytest.mark.parametrize("kind, blend", [("almm", 1.0), ("almm", 0.5), ("oord", 1.0)])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_half_sweep_entries_equal_the_objective(self, monkeypatch, kind, blend, dim):
        rng = np.random.default_rng(31 + dim)
        instances = random_instances(rng, 4, 7, 10, negatives=2)
        content = rng.normal(size=(7, 3))
        hyper = Hyperparams(
            latent_dim=dim, reg_user=0.3, reg_last=0.2, reg_next=0.1,
            refresh_blend=blend, iterations=3, seed=dim,
        )
        seen = self.record_objectives(monkeypatch, instances, hyper)
        model = (almm_train if kind == "almm" else oord_train)(instances, content, hyper)
        swept = [value for label, value in model.loss_trace if label.endswith((":users", ":last", ":next"))]
        assert len(swept) == len(seen) == 3 * hyper.iterations
        for got, want in zip(swept, seen):
            assert got == pytest.approx(want, rel=1e-12)
        if kind == "oord":
            assert model.loss_trace[-1][0] == "iter3:next"
            assert model.loss_trace[-1][1] == pytest.approx(objective(model, instances), rel=1e-12)


class TestAlmmTrain:
    def test_hand_stepped_trace_d1(self):
        # 1 positive + 1 fixed negative, d = 1, two iterations, blend 0.5
        hyper = Hyperparams(
            latent_dim=1,
            reg_user=0.1,
            reg_last=0.2,
            reg_next=0.3,
            reg_mapping=0.4,
            refresh_blend=0.5,
            iterations=2,
            seed=5,
        )
        instances = make_instances([
            (0, 0, 1, 1.0, 1.1),
            (0, 0, 2, 0.0, 1.0),
        ])
        content = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        model = almm_train(instances, content, hyper)

        # independent scalar re-implementation of the update equations
        rng = np.random.default_rng(5)
        scale = 0.1 / np.sqrt(1)
        U = rng.normal(0.0, scale, size=(1, 1))
        X = rng.normal(0.0, scale, size=(3, 1))
        Y = rng.normal(0.0, scale, size=(3, 1))
        data = [(0, 0, 1, 1.0, 1.1), (0, 0, 2, 0.0, 1.0)]
        for _ in range(2):
            num = den = 0.0
            for u, i, j, t, c in data:
                g = X[i, 0] + Y[j, 0]
                r = t - X[i, 0] * Y[j, 0]
                num += c * g * r
                den += c * g * g
            U[0, 0] = num / (den + hyper.reg_user)
            num = den = 0.0
            for u, i, j, t, c in data:  # both instances share i = 0
                g = U[u, 0] + Y[j, 0]
                r = t - U[u, 0] * Y[j, 0]
                num += c * g * r
                den += c * g * g
            X[0, 0] = num / (den + hyper.reg_last)
            for u, i, j, t, c in data:  # each j has one instance
                g = U[u, 0] + X[i, 0]
                r = t - U[u, 0] * X[i, 0]
                Y[j, 0] = (c * g * r) / (c * g * g + hyper.reg_next)
            psi_x = np.linalg.solve(
                content.T @ content + hyper.reg_mapping * np.eye(2), content.T @ X
            )
            psi_y = np.linalg.solve(
                content.T @ content + hyper.reg_mapping * np.eye(2), content.T @ Y
            )
            X = 0.5 * X + 0.5 * (content @ psi_x)
            Y = 0.5 * Y + 0.5 * (content @ psi_y)

        np.testing.assert_allclose(model.user_factors, U, rtol=1e-9)
        np.testing.assert_allclose(model.last_factors, X, rtol=1e-9)
        np.testing.assert_allclose(model.next_factors, Y, rtol=1e-9)
        np.testing.assert_allclose(model.last_mapping, psi_x, rtol=1e-9)
        np.testing.assert_allclose(model.next_mapping, psi_y, rtol=1e-9)

    def test_blend_zero_equals_pure_als(self):
        rng = np.random.default_rng(4)
        instances = random_instances(rng, 3, 5, 6)
        content = rng.normal(size=(5, 3))
        hyper_a = Hyperparams(latent_dim=2, refresh_blend=0.0, reg_mapping=9.9, iterations=3, seed=2)
        hyper_b = Hyperparams(latent_dim=2, refresh_blend=0.0, reg_mapping=0.1, iterations=3, seed=2)
        model_a = almm_train(instances, content, hyper_a)
        model_b = almm_train(instances, content, hyper_b)
        # with blend 0 the mapping regularizer cannot touch the factors
        np.testing.assert_array_equal(model_a.user_factors, model_b.user_factors)
        np.testing.assert_array_equal(model_a.last_factors, model_b.last_factors)
        np.testing.assert_array_equal(model_a.next_factors, model_b.next_factors)

    def test_als_monotonicity_on_random_problems(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            n_users = int(rng.integers(2, 5))
            n_articles = int(rng.integers(3, 6))
            dim = int(rng.integers(1, 5))
            rows = random_rows(rng, n_users, n_articles, int(rng.integers(3, 10)))[:20]
            instances = make_instances(rows, n_users, n_articles)
            content = rng.normal(size=(n_articles, 3))
            hyper = Hyperparams(
                latent_dim=dim, refresh_blend=0.0, iterations=3, seed=trial
            )
            model = almm_train(instances, content, hyper)
            values = [v for _, v in model.loss_trace]
            for prev, cur in zip(values, values[1:]):
                assert cur <= prev * (1 + 1e-9)

    def test_als_single_row_optimality(self):
        # after the final half-sweep (next factors), perturbing any updated row
        # must not lower the fixed-instance objective
        rng = np.random.default_rng(13)
        for trial in range(5):
            instances = random_instances(rng, 3, 4, 5)
            content = rng.normal(size=(4, 2))
            hyper = Hyperparams(latent_dim=3, refresh_blend=0.0, iterations=1, seed=trial)
            model = almm_train(instances, content, hyper)
            base = objective(model, instances)
            updated_rows = set(instances.j.tolist())
            for _ in range(10):
                row = int(rng.choice(sorted(updated_rows)))
                perturbed = model.next_factors.copy()
                perturbed[row] += rng.normal(scale=1e-4, size=3)
                trial_model = FactorModel(
                    kind=model.kind,
                    hyper=model.hyper,
                    user_factors=model.user_factors,
                    last_factors=model.last_factors,
                    next_factors=perturbed,
                    last_mapping=model.last_mapping,
                    next_mapping=model.next_mapping,
                    users=model.users,
                    articles=model.articles,
                )
                assert objective(trial_model, instances) >= base - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        instances = random_instances(rng, 2, 4, 4)
        content = rng.normal(size=(4, 2))
        hyper = Hyperparams(latent_dim=2, iterations=2, seed=9)
        a = almm_train(instances, content, hyper)
        b = almm_train(instances, content, hyper)
        for attr in ("user_factors", "last_factors", "next_factors", "last_mapping", "next_mapping"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))

    @pytest.mark.parametrize("width", [4, 10])  # 6 articles: primal Gram at m = 4, dual at m = 10
    def test_content_gram_factored_once_per_call(self, monkeypatch, width):
        calls = {"ridge_factor": 0, "cholesky": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(models, "ridge_factor", counting("ridge_factor", models.ridge_factor))
        monkeypatch.setattr(numerics, "cholesky", counting("cholesky", numerics.cholesky))
        rng = np.random.default_rng(8)
        instances = random_instances(rng, 3, 6, 8)
        content = as_csr(rng.normal(size=(6, width)) * (rng.random((6, width)) < 0.7))
        for train in (almm_train, oord_train):
            calls.update(ridge_factor=0, cholesky=0)
            train(instances, content, Hyperparams(latent_dim=3, iterations=4, seed=1))
            assert calls == {"ridge_factor": 1, "cholesky": 1}, train.__name__


class TestForbesTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(3)
        instances = random_instances(rng, 2, 4, 3)
        content = rng.normal(size=(4, 3))
        hyper = Hyperparams(latent_dim=2, sgd_lr=0.0, sgd_epochs=4, seed=17)
        model = forbes_train(instances, content, hyper)
        # reconstruct the documented init draws: U, then Psi_X, then Psi_Y
        init = np.random.default_rng(17)
        scale = 0.1 / np.sqrt(2)
        np.testing.assert_array_equal(model.user_factors, init.normal(0.0, scale, size=(2, 2)))
        np.testing.assert_array_equal(model.last_mapping, init.normal(0.0, scale, size=(3, 2)))
        np.testing.assert_array_equal(model.next_mapping, init.normal(0.0, scale, size=(3, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        eps = 1e-5
        for trial in range(5):
            a_i = rng.normal(size=3)
            a_j = rng.normal(size=3)
            target = float(rng.integers(0, 2))
            weight = 1.0 + 0.1 * float(rng.integers(0, 4))
            for _ in range(3):
                u = rng.normal(size=2)
                psi_x = rng.normal(size=(3, 2))
                psi_y = rng.normal(size=(3, 2))
                g_u, g_x, g_y = forbes_instance_gradients(
                    u, psi_x, psi_y, a_i, a_j, target, weight
                )

                def loss(uu=None, px=None, py=None):
                    return forbes_instance_loss(
                        u if uu is None else uu,
                        psi_x if px is None else px,
                        psi_y if py is None else py,
                        a_i,
                        a_j,
                        target,
                        weight,
                    )

                fd_u = np.zeros_like(u)
                for k in range(u.size):
                    up, down = u.copy(), u.copy()
                    up[k] += eps
                    down[k] -= eps
                    fd_u[k] = (loss(uu=up) - loss(uu=down)) / (2 * eps)
                fd_x = np.zeros_like(psi_x)
                for r in range(psi_x.shape[0]):
                    for c in range(psi_x.shape[1]):
                        up, down = psi_x.copy(), psi_x.copy()
                        up[r, c] += eps
                        down[r, c] -= eps
                        fd_x[r, c] = (loss(px=up) - loss(px=down)) / (2 * eps)
                fd_y = np.zeros_like(psi_y)
                for r in range(psi_y.shape[0]):
                    for c in range(psi_y.shape[1]):
                        up, down = psi_y.copy(), psi_y.copy()
                        up[r, c] += eps
                        down[r, c] -= eps
                        fd_y[r, c] = (loss(py=up) - loss(py=down)) / (2 * eps)

                assert np.linalg.norm(g_u - fd_u) / max(np.linalg.norm(fd_u), 1e-12) <= 1e-4
                assert np.linalg.norm(g_x - fd_x) / max(np.linalg.norm(fd_x), 1e-12) <= 1e-4
                assert np.linalg.norm(g_y - fd_y) / max(np.linalg.norm(fd_y), 1e-12) <= 1e-4

    def test_one_epoch_single_instance_hand_update(self):
        content = np.array([[0.2, 0.7, 0.1], [0.5, 0.1, 0.4]])
        instances = make_instances([(0, 0, 1, 1.0, 1.2)])
        hyper = Hyperparams(
            latent_dim=2,
            reg_user=0.3,
            reg_last=0.2,
            reg_next=0.1,
            sgd_lr=0.1,
            sgd_decay=0.5,
            sgd_epochs=1,
            seed=31,
        )
        model = forbes_train(instances, content.copy(), hyper)

        rng = np.random.default_rng(31)
        scale = 0.1 / np.sqrt(2)
        U = rng.normal(0.0, scale, size=(1, 2))
        psi_x = rng.normal(0.0, scale, size=(3, 2))
        psi_y = rng.normal(0.0, scale, size=(3, 2))
        a_i, a_j = content[0], content[1]
        x = a_i @ psi_x
        y = a_j @ psi_y
        u_old = U[0].copy()
        pred = u_old @ x + u_old @ y + x @ y
        err = 1.2 * (1.0 - pred)
        U[0] = u_old + 0.1 * (err * (x + y) - 0.3 * u_old)
        psi_x = psi_x + 0.1 * (err * np.outer(a_i, u_old + y) - 0.2 * psi_x)
        psi_y = psi_y + 0.1 * (err * np.outer(a_j, u_old + x) - 0.1 * psi_y)

        np.testing.assert_allclose(model.user_factors, U, rtol=1e-12)
        np.testing.assert_allclose(model.last_mapping, psi_x, rtol=1e-12)
        np.testing.assert_allclose(model.next_mapping, psi_y, rtol=1e-12)
        np.testing.assert_allclose(model.last_factors, content @ psi_x, rtol=1e-12)
        np.testing.assert_allclose(model.next_factors, content @ psi_y, rtol=1e-12)

    def test_divergence_raises(self):
        rng = np.random.default_rng(2)
        instances = random_instances(rng, 2, 4, 3)
        content = rng.normal(size=(4, 2)) * 10
        hyper = Hyperparams(latent_dim=2, sgd_lr=1e12, sgd_epochs=3, seed=1)
        with pytest.raises(DivergenceError):
            forbes_train(instances, content, hyper)

    def test_divergence_fails_fast_naming_the_epoch(self):
        rng = np.random.default_rng(2)
        instances = random_instances(rng, 2, 4, 3)
        content = rng.normal(size=(4, 2)) * 10
        hyper = Hyperparams(latent_dim=2, sgd_lr=1e12, sgd_epochs=3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="epoch 1"):
                forbes_train(instances, content, hyper)

    def test_non_finite_step_fails_fast_naming_the_epoch(self):
        # err = 1e4 * (1 - score) is finite, but lr * err overflows in Python
        # float arithmetic, which no numpy error state traps
        instances = make_instances([(0, 0, 1, 1.0, 1e4)])
        content = np.eye(2)
        hyper = Hyperparams(latent_dim=2, sgd_lr=1e305, sgd_epochs=2, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="SGD diverged in epoch 1: non-finite step"):
                forbes_train(instances, content, hyper)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_divergence_names_the_largest_row_norm(self, sparse):
        # 64-d rows of a category centroid plus unit noise (median norm^2 about 121), as
        # perfbench's embeddings are: at sgd_lr 0.01 forbes diverges in epoch 1
        rng = np.random.default_rng(1)
        centroids = rng.normal(size=(4, 64))
        content = centroids[rng.integers(4, size=30)] + rng.normal(size=(30, 64))
        instances = random_instances(rng, 5, 30, 20, negatives=4)
        norm2 = np.einsum("ij,ij->i", content, content)
        assert 110 < np.median(norm2) < 130
        hyper = Hyperparams(latent_dim=8, sgd_lr=0.01, sgd_epochs=3, seed=1)
        with pytest.raises(DivergenceError) as err:
            forbes_train(instances, as_csr(content) if sparse else content, hyper)
        message = str(err.value)
        assert message.startswith("SGD diverged in epoch 1: ")
        cause = "; largest content row norm^2 %.4g, lr * norm^2 %.4g" % (norm2.max(), 0.01 * norm2.max())
        assert message.endswith(cause)

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        instances = random_instances(rng, 2, 4, 4)
        content = as_csr(rng.normal(size=(4, 3)) * (rng.random((4, 3)) < 0.6))
        hyper = Hyperparams(latent_dim=2, sgd_epochs=3, seed=12)
        a = forbes_train(instances, content, hyper)
        b = forbes_train(instances, content, hyper)
        for attr in ("user_factors", "last_mapping", "next_mapping"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))


class TestForbesMatchesEagerOracle:
    """forbes_train (stacked rows, lazy decay) against the eager reference loop."""

    @staticmethod
    def problem(seed, dense, n_users=3, n_articles=6, n_positives=8, m=5):
        rng = np.random.default_rng(seed)
        instances = random_instances(rng, n_users, n_articles, n_positives, negatives=2)
        content = rng.normal(size=(n_articles, m)) * (rng.random((n_articles, m)) < 0.6)
        content[:, 0] += 0.5  # no all-zero article row
        return instances, (content if dense else as_csr(content))

    @pytest.mark.parametrize(
        "dense, overrides",
        [
            (False, {}),
            (True, {}),
            (False, {"reg_last": 0.3, "reg_next": 0.05}),
            (True, {"reg_last": 0.0, "reg_next": 0.2}),
            (False, {"reg_last": 0.0, "reg_next": 0.0, "reg_user": 0.0}),
            # lr * reg_last = 1 exactly: each update first zeroes Psi_X, as the eager decay does
            (False, {"reg_last": 4.0, "sgd_lr": 0.25, "sgd_decay": 1.0}),
            (True, {"reg_last": 4.0, "sgd_lr": 0.25, "sgd_decay": 1.0}),
        ],
        ids=[
            "sparse",
            "dense",
            "reg_last_ne_reg_next",
            "reg_last_zero",
            "no_reg",
            "unit_lr_reg_sparse",
            "unit_lr_reg_dense",
        ],
    )
    def test_matches_eager_loop(self, dense, overrides):
        instances, content = self.problem(7, dense)
        params = dict(latent_dim=3, sgd_lr=0.05, sgd_decay=0.9, sgd_epochs=6, seed=4)
        hyper = Hyperparams(**{**params, **overrides})
        model = forbes_train(instances, content, hyper)
        U, psi_x, psi_y = eager_forbes(instances, content, hyper)
        np.testing.assert_allclose(model.user_factors, U, rtol=1e-10)
        np.testing.assert_allclose(model.last_mapping, psi_x, rtol=1e-10)
        np.testing.assert_allclose(model.next_mapping, psi_y, rtol=1e-10)

    @staticmethod
    def assert_matches_eager(instances, content, hyper):
        model = forbes_train(instances, content, hyper)
        U, psi_x, psi_y = eager_forbes(instances, content, hyper)
        np.testing.assert_allclose(model.user_factors, U, rtol=1e-10)
        np.testing.assert_allclose(model.last_mapping, psi_x, rtol=1e-10)
        np.testing.assert_allclose(model.next_mapping, psi_y, rtol=1e-10)
        return model

    HYPER = Hyperparams(latent_dim=3, reg_last=0.3, reg_next=0.05, sgd_lr=0.05, sgd_decay=0.9, sgd_epochs=6, seed=4)

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_same_article_last_and_next(self, dense):
        # i == j puts the same content columns in both blocks of the stacked state
        instances, content = self.problem(7, dense)
        rows = instance_rows(instances)
        rows += [Row(0, 2, 2, 1.0, 1.2), Row(1, 4, 4, 1.0, 1.1), Row(2, 2, 2, 0.0, 1.0), Row(0, 5, 5, 0.0, 1.0)]
        self.assert_matches_eager(make_instances(rows, 3, 6), content, self.HYPER)

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_all_zero_content_row(self, dense):
        instances, content = self.problem(7, dense=True)
        content[3] = 0.0
        assert 3 in set(instances.i.tolist()) | set(instances.j.tolist())
        if not dense:
            content = as_csr(content)
            assert content[[3]].nnz == 0
        rows = instance_rows(instances) + [Row(1, 3, 3, 1.0, 1.3)]
        self.assert_matches_eager(make_instances(rows, 3, 6), content, self.HYPER)

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_users_without_instances_keep_their_init_draws(self, dense):
        instances, content = self.problem(7, dense)
        assert int(instances.u.max()) == 2
        model = self.assert_matches_eager(replace(instances, users=ids("u", 6)), content, self.HYPER)
        init = np.random.default_rng(self.HYPER.seed).normal(0.0, 0.1 / np.sqrt(3), size=(6, 3))
        np.testing.assert_array_equal(model.user_factors[3:], init[3:])
        assert not np.array_equal(model.user_factors[:3], init[:3])

    def test_scale_folded_inside_an_epoch(self, monkeypatch):
        # lr * reg = 0.5: |scale| would pass 1e-9 after 30 decays, and an
        # epoch has more instances than that
        folds = []
        fold = models._fold
        monkeypatch.setattr(models, "_fold", lambda *a: folds.append(1) or fold(*a))
        instances, content = self.problem(11, dense=False, n_users=4, n_articles=9, n_positives=30)
        hyper = Hyperparams(
            latent_dim=3, reg_last=10.0, reg_next=5.0, sgd_lr=0.05, sgd_decay=1.0, sgd_epochs=3, seed=8
        )
        model = forbes_train(instances, content, hyper)
        assert len(folds) > 2 * hyper.sgd_epochs
        U, psi_x, psi_y = eager_forbes(instances, content, hyper)
        np.testing.assert_allclose(model.user_factors, U, rtol=1e-10)
        np.testing.assert_allclose(model.last_mapping, psi_x, rtol=1e-10)
        np.testing.assert_allclose(model.next_mapping, psi_y, rtol=1e-10)


class TestForbesObjectiveTrace:
    def test_one_finite_entry_per_epoch_ending_at_the_objective(self):
        rng = np.random.default_rng(19)
        instances = random_instances(rng, 3, 6, 6)
        content = as_csr(rng.normal(size=(6, 4)) * (rng.random((6, 4)) < 0.7))
        hyper = Hyperparams(latent_dim=3, reg_user=0.2, reg_last=0.3, reg_next=0.1, sgd_epochs=5, seed=3)
        model = forbes_train(instances, content, hyper)
        assert [label for label, _ in model.loss_trace] == ["epoch%d" % k for k in range(1, 6)]
        assert all(np.isfinite(value) for _, value in model.loss_trace)
        np.testing.assert_allclose(
            model.loss_trace[-1][1], forbes_objective_oracle(model, instances, content), rtol=1e-10
        )

    def test_survives_save_and_load(self, tmp_path):
        rng = np.random.default_rng(20)
        instances = random_instances(rng, 2, 5, 4)
        content = rng.normal(size=(5, 3))
        model = forbes_train(instances, content, Hyperparams(latent_dim=2, sgd_epochs=4, seed=6))
        save_model(model, tmp_path / "forbes")
        loaded = load_model(tmp_path / "forbes")
        assert len(loaded.loss_trace) == 4
        assert loaded.loss_trace == model.loss_trace


class TestHyperparamsValidate:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sgd_lr", -0.01),
            ("sgd_lr", float("nan")),
            ("sgd_lr", float("inf")),
            ("sgd_decay", 0.0),
            ("sgd_decay", -0.5),
            ("sgd_decay", 1.5),
            ("sgd_decay", float("nan")),
            ("sgd_decay", float("inf")),
            ("reg_user", float("nan")),
            ("reg_user", float("inf")),
            ("reg_last", float("nan")),
            ("reg_last", float("inf")),
            ("reg_next", float("nan")),
            ("reg_next", float("inf")),
            ("reg_mapping", float("nan")),
            ("reg_mapping", float("inf")),
        ],
    )
    def test_rejects_bad_sgd_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{field: value}).validate()

    def test_accepts_sgd_boundaries(self):
        Hyperparams(sgd_lr=0.0, sgd_decay=1.0).validate()
        Hyperparams(sgd_lr=1e12, sgd_decay=1e-3).validate()


class TestOordTrain:
    def test_stage1_bit_identical_to_almm_blend_zero(self):
        rng = np.random.default_rng(10)
        instances = random_instances(rng, 3, 5, 6)
        content = rng.normal(size=(5, 4))
        hyper = Hyperparams(latent_dim=2, refresh_blend=0.0, iterations=4, seed=3)
        almm = almm_train(instances, content, hyper)
        oord = oord_train(instances, content, hyper)
        np.testing.assert_array_equal(oord.user_factors, almm.user_factors)
        np.testing.assert_array_equal(oord.last_factors, almm.last_factors)
        np.testing.assert_array_equal(oord.next_factors, almm.next_factors)
        np.testing.assert_array_equal(oord.last_mapping, almm.last_mapping)
        np.testing.assert_array_equal(oord.next_mapping, almm.next_mapping)
        assert oord.loss_trace == [e for e in almm.loss_trace if not e[0].endswith(":refresh")]

    def test_square_nonsingular_content_interpolates_exactly(self):
        rng = np.random.default_rng(14)
        instances = random_instances(rng, 3, 4, 5)
        content = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        hyper = Hyperparams(latent_dim=2, reg_mapping=0.0, iterations=2, seed=5)
        model = oord_train(instances, content, hyper)
        reconstructed = content @ model.next_mapping
        assert np.linalg.norm(reconstructed - model.next_factors) <= 1e-8

    def test_stage2_matches_ridge_optimum(self):
        rng = np.random.default_rng(15)
        instances = random_instances(rng, 3, 5, 6)
        content = rng.normal(size=(5, 3))
        lam = 0.7
        hyper = Hyperparams(latent_dim=2, reg_mapping=lam, iterations=2, seed=8)
        model = oord_train(instances, content, hyper)

        def ridge_objective(psi, targets):
            resid = content @ psi - targets
            return np.sum(resid * resid) + lam * np.sum(psi * psi)

        oracle = np.linalg.solve(
            content.T @ content + lam * np.eye(3), content.T @ model.last_factors
        )
        got = ridge_objective(model.last_mapping, model.last_factors)
        best = ridge_objective(oracle, model.last_factors)
        assert abs(got - best) / best <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(61)
        instances = random_instances(rng, 2, 4, 4)
        content = rng.normal(size=(4, 2))
        hyper = Hyperparams(latent_dim=2, iterations=2, seed=9)
        a = oord_train(instances, content, hyper)
        b = oord_train(instances, content, hyper)
        for attr in ("user_factors", "last_factors", "next_factors", "last_mapping", "next_mapping"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))

    def test_predict_uses_mapped_vectors_for_trained_articles(self):
        rng = np.random.default_rng(16)
        instances = random_instances(rng, 2, 4, 4)
        content = rng.normal(size=(4, 3))
        hyper = Hyperparams(latent_dim=2, iterations=2, seed=4)
        assert instances.articles == ("n0", "n1", "n2", "n3")
        model = oord_train(instances, content, hyper)
        features = dense_features(instances.articles, content)
        x = article_vectors(model, ["n1"], features, "last")[0]
        y = article_vectors(model, ["n1"], features, "next")[0]
        np.testing.assert_allclose(x, content[1] @ model.last_mapping, atol=1e-12)
        np.testing.assert_allclose(y, content[1] @ model.next_mapping, atol=1e-12)


class TestPredict:
    def test_unseen_user_ranks_by_article_affinity(self):
        model = zero_model(1, 4, 2, m=2)
        model.last_factors = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        model.next_factors = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        features = dense_features(["n0", "n1", "n2", "n3"], np.zeros((4, 2)))
        ranked = predict(model, "stranger", "n0", ["n1", "n2", "n3"], features)
        assert [a for a, _ in ranked] == ["n1", "n3", "n2"]
        assert [s for _, s in ranked] == [3.0, 2.0, 1.0]

    def test_cold_article_with_duplicate_content_maps_identically(self):
        rng = np.random.default_rng(19)
        instances = random_instances(rng, 2, 3, 3)
        dense = rng.normal(size=(4, 3)) * (rng.random((4, 3)) < 0.7)
        dense[3] = dense[1]  # cold article shares trained article n1's content
        full = as_csr(dense)
        features = FeatureMatrix(full, "tfidf", {"n%d" % k: k for k in range(4)})
        content = features.rows(["n0", "n1", "n2"])
        hyper = Hyperparams(latent_dim=2, refresh_blend=1.0, iterations=2, seed=6)
        assert instances.articles == ("n0", "n1", "n2")
        model = almm_train(instances, content, hyper)
        y_cold = article_vectors(model, ["n3"], features, "next")[0]
        np.testing.assert_array_equal(y_cold, model.next_factors[1])

    def test_hand_set_factors_ordering(self):
        model = zero_model(1, 4, 2, m=2)
        model.user_factors = np.array([[1.0, 0.5]])
        model.last_factors = np.array(
            [[0.2, 0.1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        )
        model.next_factors = np.array(
            [[0.0, 0.0], [0.4, -0.2], [-0.1, 0.9], [0.3, 0.3]]
        )
        features = dense_features(["n0", "n1", "n2", "n3"], np.zeros((4, 2)))
        ranked = predict(model, "u0", "n0", ["n1", "n2", "n3"], features)
        expected = []
        for article, row in (("n1", 1), ("n2", 2), ("n3", 3)):
            expected.append(
                (article, score(model.user_factors[0], model.last_factors[0], model.next_factors[row]))
            )
        expected.sort(key=lambda kv: -kv[1])
        assert [a for a, _ in ranked] == [a for a, _ in expected]
        for (_, got), (_, want) in zip(ranked, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_tie_break_invariant_to_input_order(self):
        model = zero_model(2, 5, 2, m=2)
        features = dense_features(["n%d" % k for k in range(5)], np.zeros((5, 2)))
        candidates = ["n3", "n1", "n4", "n2"]
        first = predict(model, "u0", "n0", candidates, features)
        second = predict(model, "u0", "n0", list(reversed(candidates)), features)
        assert first == second
        assert [a for a, _ in first] == ["n1", "n2", "n3", "n4"]

    def test_cold_candidates_sort_after_trained_on_ties(self):
        model = zero_model(1, 2, 2, m=2)
        features = dense_features(["n0", "n1", "zz_cold"], np.zeros((3, 2)))
        ranked = predict(model, "u0", "n0", ["zz_cold", "n1"], features)
        assert [a for a, _ in ranked] == ["n1", "zz_cold"]

    def test_missing_candidate_raises(self):
        model = zero_model(1, 2, 2, m=2)
        features = dense_features(["n0", "n1"], np.zeros((2, 2)))
        with pytest.raises(MissingArticlesError) as err:
            predict(model, "u0", "n0", ["n1", "ghost"], features)
        assert "ghost" in str(err.value)

    def test_empty_candidates_raise(self):
        model = zero_model(1, 2, 2, m=2)
        features = dense_features(["n0", "n1"], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            predict(model, "u0", "n0", [], features)

    def test_cold_path_consistency(self):
        rng = np.random.default_rng(25)
        instances = random_instances(rng, 2, 3, 3)
        content = rng.normal(size=(3, 4))
        hyper = Hyperparams(latent_dim=2, iterations=2, seed=7)
        assert instances.articles == ("n0", "n1", "n2")
        model = almm_train(instances, content, hyper)
        full = np.vstack([content, rng.normal(size=(1, 4))])
        features = dense_features(["n0", "n1", "n2", "cold"], full)
        x = article_vectors(model, ["cold"], features, "last")[0]
        y = article_vectors(model, ["cold"], features, "next")[0]
        np.testing.assert_allclose(x, full[3] @ model.last_mapping, atol=1e-12)
        np.testing.assert_allclose(y, full[3] @ model.next_mapping, atol=1e-12)


class TestRankingKernelMatchesScalarPredict:
    """rank_test_queries and predict against a per-query scalar_predict loop."""

    TRAINED = ["n%d" % k for k in range(8)]
    COLD = ["c%d" % k for k in range(5)]
    USERS = ["u0", "u1", "u2"]

    @classmethod
    def problem(cls, kind, dense):
        rng = np.random.default_rng(41)
        ids = cls.TRAINED + cls.COLD
        content = rng.normal(size=(len(ids), 6)) * (rng.random((len(ids), 6)) < 0.6)
        content[:, 0] += 0.5
        # exact ties: cold c0 and c1 copy trained n2 and n5, c3 copies c2,
        # and trained n7 shares n6's row; c4 is all zero
        content[8] = content[2]
        content[9] = content[5]
        content[11] = content[10]
        content[7] = content[6]
        content[12] = 0.0
        matrix = content if dense else as_csr(content)
        features = FeatureMatrix(matrix, "external" if dense else "tfidf", {a: r for r, a in enumerate(ids)})
        instances = random_instances(rng, len(cls.USERS), len(cls.TRAINED), 14, negatives=2)
        instances = replace(instances, users=cls.USERS, articles=cls.TRAINED)
        hyper = Hyperparams(latent_dim=3, iterations=3, sgd_epochs=3, seed=5)
        trainer = {"almm": almm_train, "forbes": forbes_train, "oord": oord_train}[kind]
        model = trainer(instances, features.rows(cls.TRAINED), hyper)
        train = [("u0", "n%d" % k, "n%d" % (k + 1)) for k in range(7)]
        test = [
            ("u0", "n1", "c0"),  # cold relevant item, tied with trained n2
            ("u1", "c2", "n3"),  # cold last article
            ("stranger", "n4", "c3"),  # unseen user
            ("stranger", "c4", "c1"),  # unseen user, all-zero last article
            ("u2", "n6", "n7"),
            ("u2", "n3", "n3"),  # j* == i: not a candidate
            ("u1", "c1", "n5"),
            ("u0", "n0", "c4"),
            ("u2", "c3", "c2"),
            ("stranger", "n2", "n2"),
        ]
        split = DataSplit(
            train=TripletSet([Triplet(u, i, j, 1.0) for u, i, j in train]),
            test=TripletSet([Triplet(u, i, j, 1.0) for u, i, j in test]),
            holdout_articles=set(cls.COLD),
            kind="cold",
            seed=0,
        )
        return model, split, features

    @staticmethod
    def scalar_ranks(model, split, features, k_max):
        universe = candidate_universe(split)
        ranks, top_lists = [], []
        for t in split.test:
            candidates = [a for a in universe if a != t.last_article]
            ranked = [a for a, _ in scalar_predict(model, t.user, t.last_article, candidates, features)]
            ranks.append(ranked.index(t.next_article) + 1 if t.next_article in ranked else None)
            top_lists.append(ranked[:k_max])
        return ranks, top_lists

    @staticmethod
    def kernel_ranks(model, split, features, k_max):
        """rank_test_queries' integer arrays, decoded as scalar_ranks returns them."""
        ordered, ranks, top = rank_test_queries(model, split, features, k_max)
        assert ranks.dtype == top.dtype == np.int64
        assert top.shape == (len(split.test), min(k_max, len(ordered) - 1))
        return scalar_ranks(ranks), top_lists(ordered, top)

    @pytest.mark.parametrize("dense", [False, True], ids=["tfidf", "external"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("chunk_rows", [None, 3], ids=["one_chunk", "chunks_of_3"])
    def test_ranks_and_top_lists_match(self, kind, dense, chunk_rows, monkeypatch):
        model, split, features = self.problem(kind, dense)
        universe = candidate_universe(split)
        if chunk_rows is not None:
            monkeypatch.setattr(models, "_RANK_CHUNK_SCORES", chunk_rows * len(universe))
        for k_max in (4, len(universe) + 5):  # the second exceeds C - 1
            want = self.scalar_ranks(model, split, features, k_max)
            assert self.kernel_ranks(model, split, features, k_max) == want
        ranks, lists = want
        assert ranks[5] is None and ranks[9] is None
        assert all(len(top) == len(universe) - 1 for top in lists)
        _, raw_ranks, _ = rank_test_queries(model, split, features, 4)
        assert raw_ranks[5] == raw_ranks[9] == 0

    @pytest.mark.parametrize("dense", [False, True], ids=["tfidf", "external"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_ties_straddling_the_k_max_cut(self, kind, dense):
        model, split, features = self.problem(kind, dense)
        universe = candidate_universe(split)
        cuts = set()
        for t in split.test:
            candidates = [a for a in universe if a != t.last_article]
            scores = [s for _, s in scalar_predict(model, t.user, t.last_article, candidates, features)]
            cuts.update(k for k in range(1, len(scores)) if scores[k - 1] == scores[k])
        assert cuts  # the problem's duplicate rows tie exactly
        for k_max in sorted(cuts):
            want = self.scalar_ranks(model, split, features, k_max)
            assert self.kernel_ranks(model, split, features, k_max) == want

    def test_duplicate_rows_tie_exactly(self):
        model, split, features = self.problem("almm", dense=False)
        ranked = predict(model, "u0", "n1", ["c0", "n2", "c3", "c2"], features)
        scores = dict(ranked)
        assert scores["c0"] == scores["n2"] and scores["c2"] == scores["c3"]
        ids = [a for a, _ in ranked]
        assert ids.index("n2") < ids.index("c0") and ids.index("c2") < ids.index("c3")

    @pytest.mark.parametrize("dense", [False, True], ids=["tfidf", "external"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_matches_scalar_predict(self, kind, dense):
        model, split, features = self.problem(kind, dense)
        rng = np.random.default_rng(3)
        everything = self.TRAINED + self.COLD
        for user in ("u1", "stranger"):
            for last in ("n0", "c2"):
                candidates = list(rng.permutation(everything))  # last article included
                got = predict(model, user, last, candidates, features)
                want = scalar_predict(model, user, last, candidates, features)
                assert [a for a, _ in got] == [a for a, _ in want]
                np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=1e-12)

    def test_article_missing_from_features_fails_before_scoring(self, monkeypatch):
        model, split, features = self.problem("almm", dense=False)
        split.test = TripletSet([*split.test, Triplet("u0", "n1", "ghost", 1.0)])
        calls = []
        monkeypatch.setattr(models, "article_vectors", lambda *a: calls.append(a))
        with pytest.raises(MissingArticlesError) as err:
            rank_test_queries(model, split, features, 5)
        assert "ghost" in str(err.value)
        assert calls == []


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        instances = random_instances(rng, 2, 4, 4)
        content = rng.normal(size=(4, 3))
        hyper = Hyperparams(latent_dim=2, iterations=2, seed=2)
        model = almm_train(replace(instances, users=["ua", "ub"]), content, hyper)
        save_model(model, tmp_path / "model")
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["users"], manifest["articles"]) == (["ua", "ub"], ["n0", "n1", "n2", "n3"])
        loaded = load_model(tmp_path / "model")
        assert loaded.kind == model.kind
        assert loaded.users == model.users
        assert loaded.articles == model.articles
        assert loaded.hyper == model.hyper
        for attr in ("user_factors", "last_factors", "next_factors", "last_mapping", "next_mapping"):
            np.testing.assert_array_equal(getattr(loaded, attr), getattr(model, attr))

    @staticmethod
    def saved_zero_model(tmp_path):
        path = tmp_path / "model"
        save_model(zero_model(3, 5, 2, m=4), path)
        return path

    @pytest.mark.parametrize(
        "filename, shape",
        [
            ("U.npy", (4, 2)),  # a user row the manifest does not list
            ("U.npy", (3, 3)),  # latent_dim columns
            ("X.npy", (6, 2)),  # another run's article rows
            ("Y.npy", (4, 2)),
            ("PsiX.npy", (4, 3)),
            ("PsiY.npy", (5, 2)),  # not PsiX's shape
        ],
    )
    def test_matrix_contradicting_the_manifest_is_named(self, tmp_path, filename, shape):
        path = self.saved_zero_model(tmp_path)
        save_matrix(np.zeros(shape), path / filename)
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value).startswith(str(path / filename) + ": shape %s" % (shape,))

    @pytest.mark.parametrize("filename", ["U.npy", "X.npy", "Y.npy", "PsiX.npy", "PsiY.npy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_is_named(self, tmp_path, filename, value):
        path = self.saved_zero_model(tmp_path)
        matrix = load_matrix(path / filename)
        matrix[-1, 0] = value
        save_matrix(matrix, path / filename)
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == str(path / filename) + ": non-finite values"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda manifest: manifest.pop("kind"), "missing key kind"),
            (lambda manifest: manifest.pop("articles"), "missing key articles"),
            (lambda manifest: manifest["hyperparams"].update(latent_size=2), "unknown key hyperparams.latent_size"),
        ],
        ids=["missing kind", "missing articles", "unknown hyperparameter"],
    )
    def test_malformed_manifest_is_named(self, tmp_path, edit, message):
        path = self.saved_zero_model(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s: %s" % (path / "manifest.json", message)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # the {id: row index} form, which nothing checked against the matrices
            (lambda manifest: manifest.update(users={"u0": 0, "u1": 0, "u2": 10**6}), "users must be a list of ids"),
            (lambda manifest: manifest.update(users=["u0", "u1", "u0"]), "users lists u0 more than once"),
            (lambda manifest: manifest["articles"].__setitem__(4, "n1"), "articles lists n1 more than once"),
            (lambda manifest: manifest.update(kind="foo"), "kind must be one of almm, forbes, oord, got 'foo'"),
            (lambda manifest: manifest["hyperparams"].update(latent_dim=2.0),
             "hyperparams.latent_dim must be an integer, got 2.0"),
            (lambda manifest: manifest["hyperparams"].update(iterations=True),
             "hyperparams.iterations must be an integer, got True"),
            (lambda manifest: manifest["hyperparams"].update(reg_user="0.1"),
             "hyperparams.reg_user must be a number, got '0.1'"),
            (lambda manifest: manifest["hyperparams"].update(reg_user=-1.0),
             "hyperparams.reg_user must be finite and >= 0"),
            (lambda manifest: manifest["hyperparams"].update(latent_dim=0), "hyperparams.latent_dim must be >= 1"),
            (lambda manifest: manifest.update(loss_trace=[["init", "nan"]]),
             "loss_trace must be a list of [label, finite number] pairs"),
            (lambda manifest: manifest.update(loss_trace=[["init", float("nan")]]),
             "loss_trace must be a list of [label, finite number] pairs"),
            (lambda manifest: manifest.update(loss_trace=[["init", 1.0, 2.0]]),
             "loss_trace must be a list of [label, finite number] pairs"),
            (lambda manifest: manifest.update(loss_trace=[[1, 1.0]]),
             "loss_trace must be a list of [label, finite number] pairs"),
        ],
        ids=["users in the dict form", "user listed twice", "article listed twice", "unknown kind",
             "float latent_dim", "bool iterations", "string reg_user", "negative reg_user", "zero latent_dim",
             "string loss", "nan loss", "loss triple", "int label"],
    )
    def test_manifest_id_lists_and_kind_are_checked(self, tmp_path, edit, message):
        path = self.saved_zero_model(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s: %s" % (path / "manifest.json", message)

    def test_manifest_int_fits_a_float_hyperparameter(self, tmp_path):
        path = self.saved_zero_model(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        manifest["hyperparams"]["reg_user"] = 1
        (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert load_model(path).hyper.reg_user == 1.0
