import math

import numpy as np
import pytest

from coldrec.errors import EmptyInputError
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
)
from coldrec.models import FactorModel, Hyperparams
from coldrec.numerics import cosine_distance, score
from coldrec.splits import DataSplit
from coldrec.transitions import Triplet, TripletSet


def dense_features(ids, matrix, kind="tfidf"):
    return FeatureMatrix(
        matrix=np.asarray(matrix, dtype=float),
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

    def test_none_rank_scores_zero(self):
        assert map_at_k([None], 10) == 0.0

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
        assert recall_at_k([11, None], 10) == 0.0


class TestMonotonicity:
    def test_map_and_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            ranks = [
                None if rng.random() < 0.2 else int(rng.integers(1, 40)) for _ in range(n)
            ]
            prev_map = prev_recall = -1.0
            for k in range(1, 45):
                cur_map = map_at_k(ranks, k)
                cur_recall = recall_at_k(ranks, k)
                assert cur_map >= prev_map
                assert cur_recall >= prev_recall
                prev_map, prev_recall = cur_map, cur_recall


class TestNoveltyAtK:
    def test_half_total_popularity(self):
        pop = {"A": 50, "B": 50}
        assert novelty_at_k([["A", "B"]], pop, 100, 10) == 1.0

    def test_full_popularity_is_zero(self):
        assert novelty_at_k([["A"]], {"A": 100}, 100, 10) == 0.0

    def test_uniform_eight_articles(self):
        pop = {"N%d" % k: 1 for k in range(8)}
        lists = [["N0", "N1", "N2"]]
        assert novelty_at_k(lists, pop, 8, 10) == 3.0

    def test_zero_popularity_clamped(self):
        assert novelty_at_k([["ghost"]], {}, 8, 10) == 3.0

    def test_total_clicks_must_be_positive(self):
        with pytest.raises(ValueError):
            novelty_at_k([["A"]], {}, 0, 10)


class TestDiversityAtK:
    def test_identical_rows_zero(self):
        fm = dense_features(["A", "B", "C"], [[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])
        assert diversity_at_k([["A", "B", "C"]], fm, 10) == 0.0

    def test_orthogonal_unit_rows(self):
        fm = dense_features(["A", "B"], [[1.0, 0.0], [0.0, 1.0]])
        assert diversity_at_k([["A", "B"]], fm, 2) == 1.0

    def test_k_one_is_zero_by_convention(self):
        fm = dense_features(["A", "B"], [[1.0, 0.0], [0.0, 1.0]])
        assert diversity_at_k([["A", "B"]], fm, 1) == 0.0

    def test_zero_rows_use_distance_one(self):
        fm = dense_features(["A", "B"], [[0.0, 0.0], [1.0, 0.0]])
        assert diversity_at_k([["A", "B"]], fm, 2) == 1.0


class TestEvaluate:
    def test_single_query_relevant_first(self):
        model = hand_model(["A", "B"], [[1.0], [0.0]], [[0.0], [1.0]])
        split = split_of([("u1", "A", "B")], [("u1", "A", "B")])
        fm = dense_features(["A", "B"], [[1.0, 0.0], [0.0, 1.0]])
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
        fm = dense_features(ids, np.zeros((13, 2)))
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
        fm = dense_features(ids, np.zeros((6, 2)))
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
        fm = dense_features(ids, rng.random((5, 3)))
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
            assert values["map"] == map_at_k(oracle_ranks, k)
            assert values["recall"] == recall_at_k(oracle_ranks, k)
            assert values["novelty"] == novelty_at_k(oracle_lists, {"n1": 2, "n3": 6}, 8, k)
            assert values["diversity"] == diversity_at_k(oracle_lists, fm, k)

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
            fm = dense_features(ids, rng.random((n_articles, 3)))
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
                assert values["map"] == map_at_k(ranks, k)
                assert values["recall"] == recall_at_k(ranks, k)
                assert values["novelty"] == pytest.approx(
                    novelty_at_k(lists, popularity, total, k), abs=0
                )
                assert values["diversity"] == pytest.approx(
                    diversity_at_k(lists, fm, k), abs=0
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
        fm = dense_features(ids, rng.random((6, 4)))
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
        fm = dense_features(["A", "B"], np.zeros((2, 2)))
        with pytest.raises(EmptyInputError):
            evaluate(model, split, fm, {}, [10], tfidf_features=fm)

    def test_external_features_need_tfidf_for_diversity(self):
        model = hand_model(["A", "B"], np.zeros((2, 1)), np.zeros((2, 1)))
        split = split_of([("u1", "A", "B")], [("u1", "A", "B")])
        external = dense_features(["A", "B"], np.zeros((2, 4)), kind="external")
        with pytest.raises(ValueError, match="diversity needs TF-IDF rows, got 'external' features"):
            evaluate(model, split, external, {}, [10], tfidf_features=external)
        tfidf = dense_features(["A", "B"], np.eye(2))
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
            (
                "almm,cold,ten,map,0.1",
                r"curves\.csv: line 3: k must be an integer and value a number, got 'ten' and '0\.1'$",
            ),
            (
                "almm,cold,10,map,high",
                r"curves\.csv: line 3: k must be an integer and value a number, got '10' and 'high'$",
            ),
        ],
    )
    def test_load_bad_row_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "curves.csv"
        path.write_text("model,setting,k,metric,value\nalmm,cold,10,recall,0.5\n%s\n" % row)
        with pytest.raises(ValueError, match=message):
            load_curves(path)

    def test_load_incomplete_key_names_missing_metrics(self, tmp_path):
        path = tmp_path / "curves.csv"
        emit_curves(self.make_entries(), path)
        # header plus the first five rows, as a run killed mid-write leaves it
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:6]))
        with pytest.raises(ValueError, match=r"curves\.csv: almm,cold,10 lacks metric rows: recall$"):
            load_curves(path)

    def test_format_summary_mentions_models_and_settings(self):
        text = format_summary(self.make_entries())
        assert "almm" in text
        assert "Cold-Start Evaluation" in text
        assert "MAP@10" in text
