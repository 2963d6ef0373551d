import numpy as np
import pytest

import oracles
from coldrec import metrics as metrics_mod
from coldrec.errors import EmptyInputError, FormatError
from coldrec.features import FeatureMatrix
from coldrec.metrics import (
    candidate_universe,
    diversity_at_k,
    emit_curves,
    evaluate,
    format_summary,
    load_curves,
    map_at_k,
    novelty_at_k,
    recall_at_k,
    self_information,
)
from coldrec.models import FactorModel, Hyperparams
from coldrec.splits import DataSplit
from coldrec.transitions import Triplet, TripletSet

from oracles import as_csr, score, scalar_ranks, top_lists


def feature_matrix(ids, matrix, kind="tfidf"):
    """Features over `ids`: TF-IDF rows as a CSRMatrix, as `transform` builds them; other kinds dense."""
    matrix = np.asarray(matrix, dtype=float)
    return FeatureMatrix(
        matrix=as_csr(matrix) if kind == "tfidf" else matrix,
        kind=kind,
        row_index={a: r for r, a in enumerate(ids)},
    )


def hand_model(ids, last_rows, next_rows, users=("u1",), user_rows=None, dim=1):
    n_articles = len(ids)
    user_rows = user_rows if user_rows is not None else np.zeros((len(users), dim))
    return FactorModel(
        kind="almm",
        hyper=Hyperparams(latent_dim=dim, reg_user=0, reg_last=0, reg_next=0),
        user_factors=np.asarray(user_rows, dtype=float),
        last_factors=np.asarray(last_rows, dtype=float),
        next_factors=np.asarray(next_rows, dtype=float),
        last_mapping=np.zeros((2, dim)),
        next_mapping=np.zeros((2, dim)),
        users={u: k for k, u in enumerate(users)},
        articles={a: k for k, a in enumerate(ids)},
    )


def split_of(train_rows, test_rows, kind="warm"):
    train = TripletSet([Triplet(u, i, j, 1.1) for u, i, j in train_rows])
    test = TripletSet([Triplet(u, i, j, 1.1) for u, i, j in test_rows])
    return DataSplit(train=train, test=test, holdout_articles=set(), kind=kind, seed=0)


class TestMapAtK:
    def test_single_rank_two(self):
        assert map_at_k([2], 10) == 0.5

    def test_zero_rank_scores_zero(self):
        assert map_at_k([0], 10) == 0.0

    def test_mixed_ranks_with_cutoff(self):
        assert map_at_k([1, 2, 4], 3) == (1 + 0.5 + 0) / 3

    def test_rank_outside_k(self):
        assert map_at_k([11], 10) == 0.0
        assert map_at_k([11], 20) == 1.0 / 11

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            map_at_k([1], 0)


class TestRecallAtK:
    def test_fraction_within_k(self):
        assert recall_at_k([1, 4, 12], 10) == 2 / 3

    def test_k_covers_all(self):
        assert recall_at_k([1, 4, 12], 12) == 1.0

    def test_no_overlap(self):
        assert recall_at_k([11, 0], 10) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            recall_at_k([1], 0)


class TestMonotonicity:
    def test_map_and_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            ranks = np.where(rng.random(n) < 0.2, 0, rng.integers(1, 40, size=n))
            prev_map = prev_recall = -1.0
            for k in range(1, 45):
                cur_map = map_at_k(ranks, k)
                cur_recall = recall_at_k(ranks, k)
                assert cur_map >= prev_map
                assert cur_recall >= prev_recall
                prev_map, prev_recall = cur_map, cur_recall


class TestNoveltyAtK:
    def test_half_total_popularity(self):
        information = self_information(["A", "B"], {"A": 50, "B": 50})
        assert novelty_at_k([[0, 1]], information, 10) == 1.0

    def test_full_popularity_is_zero(self):
        assert novelty_at_k([[0]], self_information(["A"], {"A": 100}), 10) == 0.0

    def test_uniform_eight_articles(self):
        ordered = ["N%d" % k for k in range(8)]
        information = self_information(ordered, {a: 1 for a in ordered})
        assert novelty_at_k([[0, 1, 2]], information, 10) == 3.0

    def test_zero_popularity_clamped(self):
        information = self_information(["ghost", "A"], {"A": 8})
        assert information.tolist() == [3.0, 0.0]
        assert novelty_at_k([[0]], information, 10) == 3.0

    def test_no_clicks_at_all_read_as_one(self):
        assert self_information(["A", "B"], {}).tolist() == [0.0, 0.0]

    def test_empty_lists_and_no_queries_are_zero(self):
        information = np.array([1.0, 2.0])
        assert novelty_at_k(np.zeros((3, 0), dtype=np.int64), information, 5) == 0.0
        assert novelty_at_k(np.zeros((0, 2), dtype=np.int64), information, 5) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            novelty_at_k([[0]], np.array([1.0]), 0)


class TestDiversityAtK:
    def test_identical_rows_zero(self):
        rows = as_csr([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])
        assert diversity_at_k([[0, 1, 2]], rows, [10])[10] == 0.0

    def test_orthogonal_unit_rows(self):
        assert diversity_at_k([[0, 1]], as_csr(np.eye(2)), [2])[2] == 1.0

    def test_k_one_is_zero_by_convention(self):
        assert diversity_at_k([[0, 1]], as_csr(np.eye(2)), [1])[1] == 0.0

    def test_zero_rows_use_distance_one(self):
        assert diversity_at_k([[0, 1]], as_csr([[0.0, 0.0], [1.0, 0.0]]), [2])[2] == 1.0

    def test_every_k_from_one_list_with_zero_rows_and_shared_content(self):
        rows = as_csr([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
        top = np.array([[0, 1, 2, 3], [2, 3, 2, 3]])  # a zero row is at distance 1 from every row
        assert diversity_at_k(top, rows, [1, 2, 3, 4]) == {1: 0.0, 2: 0.5, 3: 0.5, 4: (5 / 6) / 2}

    def test_each_pair_distance_is_computed_once_for_all_ks(self, monkeypatch):
        calls = []
        distance = metrics_mod.cosine_distance

        def counted(a, b):
            calls.append(1)
            return distance(a, b)

        monkeypatch.setattr(metrics_mod, "cosine_distance", counted)
        rng = np.random.default_rng(3)
        rows = as_csr(rng.random((30, 4)))
        for n, width in ((6, 20), (5, 4)):  # the second's lists are shorter than K_max
            calls.clear()
            diversity_at_k(rng.integers(0, 30, size=(n, width)), rows, (1, 2, 5, 10, 20))
            assert len(calls) == n * width * (width - 1) // 2

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            diversity_at_k([[0, 1]], as_csr(np.eye(2)), [0])
        with pytest.raises(ValueError, match="k must be >= 1"):
            diversity_at_k([[0, 1]], as_csr(np.eye(2)), [5, 0])


class TestArrayMetricsEqualScalarOracles:
    """The four metrics against the per-query loops of tests/oracles.py, compared with ==."""

    @staticmethod
    def case(rng, queries, width, n_candidates):
        ordered = ["a%d" % p for p in rng.permutation(n_candidates)]
        ranks = np.where(rng.random(queries) < 0.3, 0, rng.integers(1, n_candidates + 3, size=queries))
        # positions drawn with replacement, so a list may repeat a candidate
        top = rng.integers(0, n_candidates, size=(queries, width))
        content = rng.random((n_candidates, 5)) * (rng.random((n_candidates, 5)) < 0.5)
        content[rng.random(n_candidates) < 0.3] = 0.0  # all-zero TF-IDF rows
        content[1] = content[0]  # two candidates with one row
        ids = sorted(ordered)  # the feature rows in another order than `ordered`
        features = feature_matrix(ids, content)
        popularity = {a: int(rng.integers(0, 6)) for a in ordered if rng.random() < 0.7}
        return ordered, ranks, top, features, popularity

    @pytest.mark.parametrize("width", [0, 1, 2, 7, 20])
    def test_every_k_equals_the_oracles(self, width):
        rng = np.random.default_rng(17 + width)
        for queries in (1, 2, 9):
            ordered, ranks, top, features, popularity = self.case(rng, queries, width, 6)
            information = self_information(ordered, popularity)
            rows = features.rows(ordered)
            lists = top_lists(ordered, top)
            total = max(1, sum(popularity.values()))
            for k in range(1, width + 3):
                assert map_at_k(ranks, k) == oracles.map_at_k(scalar_ranks(ranks), k)
                assert recall_at_k(ranks, k) == oracles.recall_at_k(scalar_ranks(ranks), k)
                assert novelty_at_k(top, information, k) == oracles.novelty_at_k(lists, popularity, total, k)
                assert diversity_at_k(top, rows, [k])[k] == oracles.diversity_at_k(lists, features, k)
            ks = (1, 2, 5, 10, 20)  # one call for every k, lists shorter than some
            assert diversity_at_k(top, rows, ks) == {k: oracles.diversity_at_k(lists, features, k) for k in ks}

    def test_long_rank_arrays_sum_in_query_order(self):
        rng = np.random.default_rng(5)
        ranks = np.where(rng.random(5000) < 0.1, 0, rng.integers(1, 400, size=5000))
        for k in (1, 10, 399):
            assert map_at_k(ranks, k) == oracles.map_at_k(scalar_ranks(ranks), k)
            assert recall_at_k(ranks, k) == oracles.recall_at_k(scalar_ranks(ranks), k)
        ordered = ["a%d" % p for p in range(300)]
        popularity = {a: int(c) for a, c in zip(ordered, rng.integers(0, 50, size=300))}
        top = rng.integers(0, 300, size=(2000, 20))
        information = self_information(ordered, popularity)
        total = sum(popularity.values())
        for k in (1, 7, 20):
            want = oracles.novelty_at_k(top_lists(ordered, top), popularity, total, k)
            assert novelty_at_k(top, information, k) == want


class TestEvaluate:
    def test_single_query_relevant_first(self):
        model = hand_model(["A", "B"], [[1.0], [0.0]], [[0.0], [1.0]])
        split = split_of([("u1", "A", "B")], [("u1", "A", "B")])
        fm = feature_matrix(["A", "B"], [[1.0, 0.0], [0.0, 1.0]])
        results = evaluate(model, split, fm, {}, [10], tfidf_features=fm)
        values = results[("almm", "warm", 10)]
        assert values["map"] == 1.0
        assert values["recall"] == 1.0

    def test_rank_eleven_cutoffs(self):
        ids = ["Q"] + ["A%02d" % k for k in range(1, 13)]
        last = np.zeros((13, 1))
        last[0, 0] = 1.0
        nxt = np.zeros((13, 1))
        for k in range(1, 13):
            nxt[k, 0] = 13.0 - k  # candidate A01 scores highest, A12 lowest
        model = hand_model(ids, last, nxt)
        train = [("u1", "Q", "A%02d" % k) for k in range(1, 13)]
        split = split_of(train, [("u1", "Q", "A11")])
        fm = feature_matrix(ids, np.zeros((13, 2)))
        results = evaluate(model, split, fm, {}, [10, 20], tfidf_features=fm)
        at10 = results[("almm", "warm", 10)]
        at20 = results[("almm", "warm", 20)]
        assert at10["map"] == 0.0
        assert at10["recall"] == 0.0
        assert at20["map"] == 1.0 / 11
        assert at20["recall"] == 1.0

    def test_two_queries_average(self):
        ids = ["Q"] + ["A%d" % k for k in range(1, 6)]
        last = np.zeros((6, 1))
        last[0, 0] = 1.0
        nxt = np.zeros((6, 1))
        for k in range(1, 6):
            nxt[k, 0] = 6.0 - k
        model = hand_model(ids, last, nxt)
        train = [("u1", "Q", "A%d" % k) for k in range(1, 6)]
        split = split_of(train, [("u1", "Q", "A1"), ("u1", "Q", "A4")])
        fm = feature_matrix(ids, np.zeros((6, 2)))
        results = evaluate(model, split, fm, {}, [10], tfidf_features=fm)
        values = results[("almm", "warm", 10)]
        assert values["map"] == (1 + 0.25) / 2
        assert values["recall"] == 1.0

    def test_zero_model_matches_fixed_order_oracle(self):
        ids = ["n%d" % k for k in range(5)]
        model = hand_model(ids, np.zeros((5, 1)), np.zeros((5, 1)))
        train = [("u1", "n0", "n1"), ("u1", "n1", "n2"), ("u1", "n2", "n3"), ("u1", "n3", "n4")]
        test = [("u1", "n0", "n3"), ("u1", "n2", "n1")]
        split = split_of(train, test)
        rng = np.random.default_rng(0)
        fm = feature_matrix(ids, rng.random((5, 3)))
        results = evaluate(model, split, fm, {"n1": 2, "n3": 6}, [2, 4], tfidf_features=fm)
        # with all scores zero the ranking is the article-index order minus i
        oracle_ranks = []
        oracle_lists = []
        universe = candidate_universe(split)
        for u, i, j in test:
            cands = [a for a in universe if a != i]
            cands.sort(key=lambda a: model.articles[a])
            oracle_ranks.append(cands.index(j) + 1)
            oracle_lists.append(cands)
        for k in (2, 4):
            values = results[("almm", "warm", k)]
            assert values["map"] == oracles.map_at_k(oracle_ranks, k)
            assert values["recall"] == oracles.recall_at_k(oracle_ranks, k)
            assert values["novelty"] == oracles.novelty_at_k(oracle_lists, {"n1": 2, "n3": 6}, 8, k)
            assert values["diversity"] == oracles.diversity_at_k(oracle_lists, fm, k)

    def test_matches_brute_force_oracle_on_tiny_problems(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            n_articles = int(rng.integers(3, 6))
            ids = ["n%d" % k for k in range(n_articles)]
            model = hand_model(
                ids,
                rng.normal(size=(n_articles, 2)),
                rng.normal(size=(n_articles, 2)),
                users=("u1", "u2"),
                user_rows=rng.normal(size=(2, 2)),
                dim=2,
            )
            pairs = [(i, j) for i in ids for j in ids if i != j]
            rng.shuffle(pairs)
            train = [("u1", i, j) for i, j in pairs[: n_articles + 1]]
            n_test = int(rng.integers(1, 5))
            test = [("u%d" % rng.integers(1, 3), i, j) for i, j in pairs[n_articles + 1 : n_articles + 1 + n_test]]
            if not test:
                continue
            split = split_of(train, test)
            fm = feature_matrix(ids, rng.random((n_articles, 3)))
            popularity = {a: int(rng.integers(0, 5)) for a in ids}
            total = max(1, sum(popularity.values()))
            results = evaluate(model, split, fm, popularity, [2, 3], tfidf_features=fm)

            # exhaustive oracle: explicit per-candidate scoring and sorting
            universe = candidate_universe(split)
            ranks, lists = [], []
            for u, i, j in test:
                scored = []
                for a in universe:
                    if a == i:
                        continue
                    u_vec = (
                        model.user_factors[model.users[u]]
                        if u in model.users
                        else np.zeros(2)
                    )
                    s = score(
                        u_vec,
                        model.last_factors[model.articles[i]],
                        model.next_factors[model.articles[a]],
                    )
                    scored.append((a, s))
                scored.sort(key=lambda kv: (-kv[1], model.articles[kv[0]]))
                ordered = [a for a, _ in scored]
                ranks.append(ordered.index(j) + 1)
                lists.append(ordered[:3])
            for k in (2, 3):
                values = results[("almm", split.kind, k)]
                assert values["map"] == oracles.map_at_k(ranks, k)
                assert values["recall"] == oracles.recall_at_k(ranks, k)
                assert values["novelty"] == pytest.approx(
                    oracles.novelty_at_k(lists, popularity, total, k), abs=0
                )
                assert values["diversity"] == pytest.approx(
                    oracles.diversity_at_k(lists, fm, k), abs=0
                )

    def test_metric_values_within_declared_ranges(self):
        rng = np.random.default_rng(71)
        ids = ["n%d" % k for k in range(6)]
        model = hand_model(
            ids,
            rng.normal(size=(6, 2)),
            rng.normal(size=(6, 2)),
            users=("u1",),
            user_rows=rng.normal(size=(1, 2)),
            dim=2,
        )
        train = [("u1", ids[k], ids[(k + 1) % 6]) for k in range(6)]
        test = [("u1", "n0", "n2"), ("u1", "n3", "n5")]
        split = split_of(train, test)
        fm = feature_matrix(ids, rng.random((6, 4)))
        popularity = {a: int(rng.integers(0, 9)) for a in ids}
        results = evaluate(model, split, fm, popularity, [5, 1, 3, 2, 3], tfidf_features=fm)
        assert list(results) == [("almm", "warm", k) for k in (1, 2, 3, 5)]
        prev_recall = -1.0
        for k in (1, 2, 3, 5):
            values = results[("almm", "warm", k)]
            assert 0.0 <= values["map"] <= 1.0
            assert 0.0 <= values["recall"] <= 1.0
            assert 0.0 <= values["diversity"] <= 2.0
            assert values["novelty"] >= 0.0
            assert values["recall"] >= prev_recall
            prev_recall = values["recall"]

    def test_empty_test_raises(self):
        model = hand_model(["A", "B"], np.zeros((2, 1)), np.zeros((2, 1)))
        split = split_of([("u1", "A", "B")], [])
        fm = feature_matrix(["A", "B"], np.zeros((2, 2)))
        with pytest.raises(EmptyInputError):
            evaluate(model, split, fm, {}, [10], tfidf_features=fm)

    def test_external_features_need_tfidf_for_diversity(self):
        model = hand_model(["A", "B"], np.zeros((2, 1)), np.zeros((2, 1)))
        split = split_of([("u1", "A", "B")], [("u1", "A", "B")])
        external = feature_matrix(["A", "B"], np.zeros((2, 4)), kind="external")
        with pytest.raises(ValueError, match="diversity needs TF-IDF rows, got 'external' features"):
            evaluate(model, split, external, {}, [10], tfidf_features=external)
        tfidf = feature_matrix(["A", "B"], np.eye(2))
        results = evaluate(model, split, external, {}, [10], tfidf_features=tfidf)
        assert results[("almm", "warm", 10)]["recall"] == 1.0


class TestEmitCurves:
    def make_entries(self):
        return {
            ("almm", "cold", k): {"map": 0.5 / k, "recall": 1.0 / k, "novelty": 2.0, "diversity": 0.25}
            for k in (10, 20)
        }

    def test_row_cardinality(self, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(self.make_entries(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,setting,k,metric,value"
        assert len(lines) == 1 + 8  # 1 model x 2 Ks x 4 metrics

    def test_byte_identical_on_reemit(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        entries = self.make_entries()
        emit_curves(entries, a)
        emit_curves(entries, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_curves({}, path)
        assert path.read_text() == "model,setting,k,metric,value\n"

    def test_rows_sorted(self, tmp_path):
        entries = self.make_entries()
        entries[("almm", "warm", 10)] = entries[("almm", "cold", 10)]
        path = tmp_path / "curves.csv"
        emit_curves(entries, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        keys = [(r[0], r[1], r[3], int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "curves.csv"
        entries = self.make_entries()
        emit_curves(entries, path)
        assert load_curves(path) == entries

    @pytest.mark.parametrize(
        "row, message",
        [
            ("almm,cold,10,map", r"curves\.csv: line 3: expected 5 columns$"),
            ("almm,cold,10,map,0.1,9", r"curves\.csv: line 3: expected 5 columns$"),
            ("almm,cold,ten,map,0.1", r"curves\.csv: line 3: k must be an integer, got 'ten'$"),
            ("almm,cold,10,map,high", r"curves\.csv: line 3: value must be a number, got 'high'$"),
            ("almm,cold,10,recall,0.6",
             r"curves\.csv: line 3: model almm, setting cold, k 10, metric recall is listed twice$"),
            ("almm,cold,0,map,0.1", r"curves\.csv: line 3: k must be >= 1, got 0$"),
            ("almm,cold,10,bogus,0.1",
             r"curves\.csv: line 3: metric must be one of map, recall, novelty, diversity, got 'bogus'$"),
            ("almm,cold,10,map,nan", r"curves\.csv: line 3: map must be finite, got nan$"),
            ("almm,cold,10,novelty,inf", r"curves\.csv: line 3: novelty must be finite, got inf$"),
            ("almm,cold,10,diversity,-inf", r"curves\.csv: line 3: diversity must be finite, got -inf$"),
            ("almm,cold,10,map,-3", r"curves\.csv: line 3: map must be >= 0, got -3\.0$"),
            ("almm,cold,10,novelty,-0.5", r"curves\.csv: line 3: novelty must be >= 0, got -0\.5$"),
        ],
    )
    def test_load_bad_row_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "curves.csv"
        path.write_text("model,setting,k,metric,value\nalmm,cold,10,recall,0.5\n%s\n" % row)
        with pytest.raises(FormatError, match=message):
            load_curves(path)

    def test_load_accepts_a_diversity_rounded_below_zero(self, tmp_path):
        # 1 - cos of two equal rows can round to -2**-52
        path = tmp_path / "curves.csv"
        entries = {("almm", "cold", 2): {"map": 0.0, "recall": 0.0, "novelty": 1.0, "diversity": -(2.0**-52)}}
        emit_curves(entries, path)
        assert load_curves(path) == entries

    def test_load_incomplete_key_names_missing_metrics(self, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(self.make_entries(), path)
        # header plus the first five rows, as a run killed mid-write leaves it
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:6]))
        with pytest.raises(FormatError, match=r"curves\.csv: almm,cold,10 lacks metric rows: recall$"):
            load_curves(path)

    def test_format_summary_mentions_models_and_settings(self):
        text = format_summary(self.make_entries())
        assert "almm" in text
        assert "Cold-Start Evaluation" in text
        assert "MAP@10" in text
