from collections import namedtuple

import numpy as np
import pytest

from coldrec.artifacts import write_rows
from coldrec.errors import EmptyInputError, FormatError
from coldrec.mind import Clicks
from coldrec.transitions import (
    Triplet,
    TripletSet,
    build_tensor,
    build_triplets,
    load_triplets,
)

from conftest import clicks_of, click_rows

Event = namedtuple("Event", "news timestamp within_impression_rank")


def stream(user, *clicks):
    """Click streams of one user; clicks: (news, timestamp) or (news, timestamp, rank)
    tuples, already ordered."""
    return clicks_of([(user, click[0], click[1], click[2] if len(click) > 2 else 0) for click in clicks])


def brute_force_tensor(clicks, window_seconds):
    """Independent enumerator: collects each user's events, re-sorts them, then
    applies the three transition criteria (immediately-before, gap <= window,
    distinct) to every adjacent index pair."""
    streams = {}
    for user, news, ts, rank in click_rows(clicks):
        streams.setdefault(user, []).append(Event(news, ts, rank))
    counts = {}
    for user, events in streams.items():
        ordered = sorted(events, key=lambda e: (e.timestamp, e.within_impression_rank))
        for pos in range(1, len(ordered)):
            first, second = ordered[pos - 1], ordered[pos]
            if second.timestamp - first.timestamp > window_seconds:
                continue
            if first.news == second.news:
                continue
            key = (user, first.news, second.news)
            counts[key] = counts.get(key, 0) + 1
    return counts


def brute_force_triplets(tensor_entries):
    pair_totals = {}
    for (_, i, j), count in tensor_entries.items():
        pair_totals[(i, j)] = pair_totals.get((i, j), 0) + count
    return {
        (u, i, j): 1.0 + 0.1 * pair_totals[(i, j)] for (u, i, j) in tensor_entries
    }


def random_log(rng):
    """Synthetic multi-user click log: <= 10 users, <= 50 clicks total."""
    rows = []
    clicks_left = int(rng.integers(2, 51))
    n_users = int(rng.integers(1, 11))
    articles = ["N%d" % k for k in range(int(rng.integers(2, 9)))]
    for u in range(n_users):
        if clicks_left <= 0:
            break
        n_clicks = int(rng.integers(1, min(clicks_left, 12) + 1))
        clicks_left -= n_clicks
        ts = int(rng.integers(1, 1000))
        for k in range(n_clicks):
            # mix of tiny gaps, window-boundary gaps, and session breaks
            ts += int(rng.choice([0, 10, 600, 1800, 1801, 4000]))
            rows.append(("U%d" % u, articles[int(rng.integers(len(articles)))], ts, k))
    return clicks_of(rows)


class TestBuildTensor:
    def test_pair_within_window(self):
        tensor = build_tensor(stream("u", ("A", 0), ("B", 600)), 1800)
        assert tensor == {("u", "A", "B"): 1}

    def test_pair_outside_window_dropped(self):
        tensor = build_tensor(stream("u", ("A", 0), ("B", 1801)), 1800)
        assert tensor == {}

    def test_window_boundary_inclusive(self):
        tensor = build_tensor(stream("u", ("A", 0), ("B", 1800)), 1800)
        assert tensor == {("u", "A", "B"): 1}

    def test_self_transition_eliminated(self):
        tensor = build_tensor(stream("u", ("A", 0), ("A", 60), ("B", 120)), 1800)
        assert tensor == {("u", "A", "B"): 1}

    def test_equal_timestamps_are_eligible(self):
        tensor = build_tensor(stream("u", ("A", 50, 0), ("B", 50, 1)), 1800)
        assert tensor == {("u", "A", "B"): 1}

    def test_repeat_transition_counted(self):
        tensor = build_tensor(stream("u", ("A", 0), ("B", 10), ("A", 20), ("B", 30)), 1800)
        assert tensor == {("u", "A", "B"): 2, ("u", "B", "A"): 1}

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            build_tensor(clicks_of([]), 0)

    def test_stream_order_invariance(self):
        rng = np.random.default_rng(99)
        clicks = random_log(rng)
        users = list(dict.fromkeys(clicks.user.tolist()))
        reversed_users = np.concatenate([np.flatnonzero(clicks.user == user) for user in reversed(users)])
        forward = build_tensor(clicks, 1800)
        backward = build_tensor(Clicks(*(column[reversed_users] for column in clicks)), 1800)
        assert forward == backward


class TestBuildTriplets:
    def test_single_entry_confidence(self):
        tset = build_triplets({("u", "A", "B"): 1})
        assert len(tset) == 1
        assert list(tset)[0].confidence == 1.0 + 0.1 * 1

    def test_global_cross_user_count(self):
        tensor = {("u1", "A", "B"): 2, ("u2", "A", "B"): 1}
        tset = build_triplets(tensor)
        assert len(tset) == 2
        for t in tset:
            assert t.confidence == 1.0 + 0.1 * 3

    def test_one_triplet_per_distinct_key(self):
        tensor = {("u1", "A", "B"): 1, ("u1", "B", "C"): 4, ("u2", "A", "C"): 2}
        assert len(build_triplets(tensor)) == 3

    def test_empty_tensor_raises(self):
        with pytest.raises(EmptyInputError):
            build_triplets({})

    def test_index_maps_are_bijections(self):
        tensor = {("u1", "A", "B"): 1, ("u2", "B", "C"): 1, ("u1", "C", "A"): 1}
        tset = build_triplets(tensor)
        assert sorted(tset.users.values()) == list(range(len(tset.users)))
        assert sorted(tset.articles.values()) == list(range(len(tset.articles)))

    def test_confidence_monotonicity(self):
        base = {("u1", "A", "B"): 2, ("u1", "B", "C"): 1}
        bumped = {("u1", "A", "B"): 2, ("u1", "B", "C"): 1, ("u2", "A", "B"): 1}
        conf_base = {(t.user, t.last_article, t.next_article): t.confidence for t in build_triplets(base)}
        conf_bumped = {(t.user, t.last_article, t.next_article): t.confidence for t in build_triplets(bumped)}
        assert conf_bumped[("u1", "A", "B")] - conf_base[("u1", "A", "B")] == pytest.approx(0.1, abs=1e-12)
        assert conf_bumped[("u1", "B", "C")] == conf_base[("u1", "B", "C")]


class TestOracleEquivalence:
    def test_random_logs_match_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            streams = random_log(rng)
            tensor = build_tensor(streams, 1800)
            expected = brute_force_tensor(streams, 1800)
            assert tensor == expected
            # conservation: total count equals the number of qualifying pairs
            assert sum(tensor.values()) == sum(expected.values())
            if expected:
                triplets = build_triplets(tensor)
                got = {
                    (t.user, t.last_article, t.next_article): t.confidence for t in triplets
                }
                assert got == brute_force_triplets(expected)


class TestTripletPersistence:
    def test_round_trip(self, tmp_path):
        tensor = {("u1", "A", "B"): 2, ("u2", "A", "B"): 1, ("u1", "B", "C"): 1}
        tset = build_triplets(tensor)
        path = tmp_path / "triplets.tsv"
        write_rows(path, tset)
        loaded = load_triplets(path)
        assert list(loaded) == list(tset)
        assert loaded.users == tset.users
        assert loaded.articles == tset.articles

    def test_confidence_written_as_a_python_float_repr(self, tmp_path):
        # a numpy float64 would print as np.float64(...) under numpy 2; the
        # shortest round-tripping repr keeps 1.0 + 0.1 * 7's trailing digits
        path = tmp_path / "triplets.tsv"
        rows = [Triplet("u1", "A", "B", 1.0 + 0.1 * 3), Triplet("u1", "B", "C", 1.0 + 0.1 * 7)]
        write_rows(path, TripletSet(rows))
        assert path.read_text() == "u1\tA\tB\t1.3\nu1\tB\tC\t1.7000000000000002\n"

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\tA\tB\n")
        with pytest.raises(FormatError):
            load_triplets(path)

    @pytest.mark.parametrize("confidence", ["nan", "inf", "-inf", "0", "0.0", "-1.5"])
    def test_bad_confidence_raises_naming_the_line(self, tmp_path, confidence):
        path = tmp_path / "train.tsv"
        path.write_text("u1\tA\tB\t1.1\nu1\tB\tC\t%s\n" % confidence)
        with pytest.raises(FormatError, match=r"train\.tsv: line 2: confidence must be finite and > 0"):
            load_triplets(path)

    def test_non_numeric_confidence_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("u1\tA\tB\t1.1\nu1\tB\tC\tabc\n")
        message = r"train\.tsv: line 2: confidence must be a number, got 'abc'"
        with pytest.raises(FormatError, match=message):
            load_triplets(path)

    def test_first_row_repeating_an_earlier_one_is_named(self, tmp_path):
        # line 4 repeats line 2 and line 5 line 1; the same pair for another user, or the
        # reversed move, is no repeat
        path = tmp_path / "train.tsv"
        path.write_text("u1\tA\tB\t1.1\nu2\tA\tB\t1.1\nu1\tB\tA\t1.1\nu2\tA\tB\t1.2\nu1\tA\tB\t1.1\n")
        with pytest.raises(FormatError,
                           match=r"^.*train\.tsv: line 4: user u2, last_article A, next_article B is listed twice$"):
            load_triplets(path)

    def test_a_self_transition_is_named(self, tmp_path):
        # build_tensor counts no self-transition; evaluating one moved metrics.csv without an error
        path = tmp_path / "train.tsv"
        path.write_text("u1\tA\tB\t1.1\nu1\tB\tB\t1.1\nu2\tC\tC\t1.1\n")
        with pytest.raises(FormatError, match=r"^.*train\.tsv: line 2: last_article and next_article are both B$"):
            load_triplets(path)

    def test_distinct_rows_with_shared_codes_load(self, tmp_path):
        path = tmp_path / "train.tsv"
        rows = ["%s\t%s\t%s\t1.1\n" % (u, a, b) for u in ("u1", "u2") for a in "ABC" for b in "ABC" if a != b]
        path.write_text("".join(rows))
        assert len(load_triplets(path)) == 12
