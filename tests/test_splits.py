import json
from collections import Counter

import pytest

from coldrec.errors import DegenerateSplitError, FormatError
from coldrec.splits import (
    DataSplit,
    load_split,
    make_cold_split,
    make_warm_split,
    save_split,
)
from coldrec.transitions import Triplet, TripletSet

from conftest import synthetic_triplet_set


def tset(*rows):
    return TripletSet([Triplet(u, i, j, c) for u, i, j, c in rows])


def side_counts(side):
    """(users, items, entries) of one split side, as stage_split logs them."""
    return len(side.users), len(side.articles), len(side)


def as_multiset(side):
    return Counter((t.user, t.last_article, t.next_article, t.confidence) for t in side)


class TestColdSplit:
    def test_holdout_membership_rule(self):
        triplets = synthetic_triplet_set()
        for seed in range(10):
            split = make_cold_split(triplets, 0.15, seed)
            for t in split.test:
                assert {t.last_article, t.next_article} & split.holdout_articles
            for t in split.train:
                assert not ({t.last_article, t.next_article} & split.holdout_articles)

    def test_single_holdout_article_routes_triplets(self):
        triplets = tset(("u", "A", "B", 1.1), ("u", "A", "C", 1.1))
        # scan seeds for a holdout of exactly {B}; membership then forces the sides
        for seed in range(50):
            split = make_cold_split(triplets, 0.1, seed)
            if split.holdout_articles == {"B"}:
                assert as_multiset(split.test) == as_multiset(tset(("u", "A", "B", 1.1)))
                assert as_multiset(split.train) == as_multiset(tset(("u", "A", "C", 1.1)))
                return
        pytest.fail("no seed produced holdout {B}")

    def test_untouched_holdout_is_degenerate(self):
        # article D never appears in any triplet position that would route to test
        triplets = tset(("u", "A", "B", 1.1))
        with pytest.raises(DegenerateSplitError):
            # the only articles are A and B; one of them is held out, so train empties
            make_cold_split(triplets, 0.1, 0)

    def test_fraction_out_of_range_raises(self):
        triplets = tset(("u", "A", "B", 1.1))
        with pytest.raises(ValueError):
            make_cold_split(triplets, 0.0, 1)
        with pytest.raises(ValueError):
            make_cold_split(triplets, 1.0, 1)

    def test_frozen_regression_sizes(self):
        split = make_cold_split(synthetic_triplet_set(), 0.1, 7)
        assert len(split.holdout_articles) == 3
        assert side_counts(split.train) == (12, 27, 97)
        assert side_counts(split.test) == (9, 19, 20)

    def test_cold_invariant_holds_everywhere(self):
        split = make_cold_split(synthetic_triplet_set(), 0.2, 3)
        assert all(
            {t.last_article, t.next_article} & split.holdout_articles for t in split.test
        )
        assert not any(
            {t.last_article, t.next_article} & split.holdout_articles for t in split.train
        )


class TestWarmSplit:
    def test_shared_articles_split_evenly(self):
        triplets = tset(("u1", "A", "B", 1.1), ("u2", "A", "B", 1.1))
        split = make_warm_split(triplets, 0.5, 4)
        assert len(split.test) == 1
        assert len(split.train) == 1

    def test_unique_article_triplet_forced_to_train(self):
        # C appears only in the second triplet, so it can never sit in test
        triplets = tset(("u1", "A", "B", 1.1), ("u2", "A", "C", 1.1), ("u3", "B", "A", 1.1))
        for seed in range(30):
            split = make_warm_split(triplets, 0.34, seed)
            for t in split.test:
                assert t.next_article != "C"

    def test_warm_invariant(self):
        split = make_warm_split(synthetic_triplet_set(), 0.2, 7)
        train_articles = {
            a for t in split.train for a in (t.last_article, t.next_article)
        }
        for t in split.test:
            assert t.last_article in train_articles
            assert t.next_article in train_articles

    def test_frozen_regression_sizes(self):
        split = make_warm_split(synthetic_triplet_set(), 0.2, 7)
        assert side_counts(split.train) == (12, 30, 93)
        assert side_counts(split.test) == (10, 25, 24)

    def test_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError):
            make_warm_split(tset(("u", "A", "B", 1.1)), 1.5, 0)


class TestSplitProperties:
    @pytest.mark.parametrize("kind", ["warm", "cold"])
    def test_deterministic(self, kind):
        triplets = synthetic_triplet_set()
        make = make_warm_split if kind == "warm" else make_cold_split
        first = make(triplets, 0.2, 11)
        second = make(triplets, 0.2, 11)
        assert as_multiset(first.train) == as_multiset(second.train)
        assert as_multiset(first.test) == as_multiset(second.test)
        assert first.holdout_articles == second.holdout_articles

    @pytest.mark.parametrize("kind", ["warm", "cold"])
    def test_exact_partition(self, kind):
        triplets = synthetic_triplet_set()
        make = make_warm_split if kind == "warm" else make_cold_split
        split = make(triplets, 0.2, 5)
        combined = as_multiset(split.train) + as_multiset(split.test)
        assert combined == as_multiset(triplets)


class TestSplitStats:
    def test_hand_counts(self):
        split = make_warm_split(
            tset(("u1", "A", "B", 1.1), ("u2", "A", "C", 1.2), ("u1", "B", "A", 1.1)),
            0.34,
            2,
        )
        total_entries = len(split.train) + len(split.test)
        assert total_entries == 3

    def test_direct_side_counts(self):
        side = tset(("u1", "A", "B", 1.1), ("u2", "A", "C", 1.1))
        assert side_counts(side) == (2, 3, 2)

    def test_empty_side_is_zero(self):
        assert side_counts(TripletSet([])) == (0, 0, 0)


class TestSplitPersistence:
    @pytest.mark.parametrize("kind", ["warm", "cold"])
    def test_round_trip(self, tmp_path, kind):
        triplets = synthetic_triplet_set()
        if kind == "cold":
            split = make_cold_split(triplets, 0.1, 7)
        else:
            split = make_warm_split(triplets, 0.2, 7)
        save_split(split, tmp_path / kind, 0.1)
        loaded = load_split(tmp_path / kind)
        assert loaded.kind == split.kind
        assert loaded.seed == split.seed
        assert loaded.holdout_articles == split.holdout_articles
        assert list(loaded.train) == list(split.train)
        assert list(loaded.test) == list(split.test)
        assert loaded.train.articles == split.train.articles


class TestLoadSplitErrors:
    """A split directory that breaks its manifest's layout or its kind's
    invariant fails to load with a FormatError naming the path."""

    def saved(self, tmp_path, kind):
        triplets = synthetic_triplet_set()
        split = make_cold_split(triplets, 0.1, 7) if kind == "cold" else make_warm_split(triplets, 0.2, 7)
        save_split(split, tmp_path / kind, 0.1)
        return split, tmp_path / kind

    def edit_manifest(self, dirpath, edit):
        path = dirpath / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    def test_manifest_without_kind(self, tmp_path):
        _, dirpath = self.saved(tmp_path, "cold")
        self.edit_manifest(dirpath, lambda m: m.pop("kind"))
        with pytest.raises(FormatError, match=r"manifest\.json: malformed manifest: KeyError\('kind'\)"):
            load_split(dirpath)

    def test_manifest_with_unknown_kind(self, tmp_path):
        _, dirpath = self.saved(tmp_path, "warm")
        self.edit_manifest(dirpath, lambda m: m.update(kind="lukewarm"))
        with pytest.raises(FormatError, match=r"manifest\.json: kind must be 'warm' or 'cold', got 'lukewarm'"):
            load_split(dirpath)

    def test_cold_train_side_referencing_a_holdout_article(self, tmp_path):
        split, dirpath = self.saved(tmp_path, "cold")
        trained = next(iter(split.train)).last_article
        self.edit_manifest(dirpath, lambda m: m["holdout_articles"].append(trained))
        with pytest.raises(FormatError) as err:
            load_split(dirpath)
        assert str(err.value) == "%s: cold split: holdout articles on the train side: %s" % (dirpath, trained)

    def test_warm_test_article_absent_from_train(self, tmp_path):
        split = DataSplit(
            train=tset(("u1", "A", "B", 1.1)),
            test=tset(("u1", "A", "ghost", 1.1)),
            holdout_articles=set(),
            kind="warm",
            seed=3,
        )
        save_split(split, tmp_path / "warm", 0.2)
        with pytest.raises(FormatError) as err:
            load_split(tmp_path / "warm")
        assert str(err.value) == "%s: warm split: test articles not trained on: ghost" % (tmp_path / "warm")
