import os

import numpy as np
import pytest

from coldrec.mind import Clicks
from coldrec.transitions import Triplet, TripletSet

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def clicks_of(rows) -> Clicks:
    """Clicks from (user, news, timestamp, rank) rows, kept in the given order."""
    user, news, timestamp, rank = zip(*rows) if rows else ((), (), (), ())
    return Clicks(np.array(user, dtype=object), np.array(news, dtype=object),
                  np.array(timestamp, dtype=np.int64), np.array(rank, dtype=np.int64))


def click_rows(clicks: Clicks) -> list:
    """(user, news, timestamp, rank) per row of `clicks`, in row order."""
    return list(zip(*(column.tolist() for column in clicks)))


@pytest.fixture
def data_dir():
    return DATA_DIR


def synthetic_triplet_set(seed: int = 123, n_draws: int = 120) -> TripletSet:
    """Deterministic mid-size triplet set shared by the split tests."""
    rng = np.random.default_rng(seed)
    triplets = []
    seen = set()
    for _ in range(n_draws):
        user = "U%d" % rng.integers(12)
        i = int(rng.integers(30))
        j = int(rng.integers(30))
        if i == j:
            continue
        key = (user, i, j)
        if key in seen:
            continue
        seen.add(key)
        triplets.append(
            Triplet(user, "N%d" % i, "N%d" % j, 1.0 + 0.1 * int(rng.integers(1, 5)))
        )
    return TripletSet(triplets)
