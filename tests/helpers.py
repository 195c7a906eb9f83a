"""Shared generators for synthetic test instances, and shared checks."""

import os
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from prefwalk import PreferenceStore, graph, loads_ratings, preferences


def random_ratings(rng, n_users=8, n_items=9, min_per_user=2, max_per_user=None,
                   raw_offset=100):
    """Random ratings dataset built through the text parser, so raw-id
    mapping is exercised too.  Every user rates at least min_per_user
    distinct items with grades 1..5."""
    max_per_user = max_per_user or n_items
    lines = []
    for u in range(n_users):
        count = int(rng.integers(min_per_user, max_per_user + 1))
        items = rng.choice(n_items, size=min(count, n_items), replace=False)
        for i in items:
            lines.append(f"{u + raw_offset}\t{i + raw_offset}\t{rng.integers(1, 6)}")
    return loads_ratings("\n".join(lines))


def random_store(rng, n_users=6, n_items=6, fill=0.4) -> PreferenceStore:
    """Random preference store: each unordered item pair is held by a
    user with probability fill, in a random orientation (so stores are
    antisymmetric by construction)."""
    users = []
    for _ in range(n_users):
        pairs = []
        for a in range(n_items):
            for b in range(a + 1, n_items):
                if rng.random() < fill:
                    pairs.append((a, b) if rng.random() < 0.5 else (b, a))
        users.append(pairs)
    return PreferenceStore.from_pairs(n_users, n_items, users)


def first_warm_user(store) -> int:
    for u in range(store.n_users):
        if store.count(u) > 0:
            return u
    raise AssertionError("store has no warm user")


def ml100k_file():
    """Locate the MovieLens-100K u.data file, if present."""
    env = os.environ.get("PREFWALK_ML100K")
    candidates = [Path(env)] if env else []
    candidates += [Path("data/ml-100k/u.data"), Path("u.data"),
                   Path(__file__).resolve().parent.parent / "data" / "ml-100k" / "u.data"]
    for path in candidates:
        if path and path.is_file():
            return path
    return None


@contextmanager
def factor_kind(kind: str):
    """Within the block, walk 1's factor is built dense ("dense") or
    sparse ("sparse") whatever the coupling's density (test graphs stay
    under the dense factor's user cap).  A graph keeps the operators it
    built, and they keep their factors, so each kind needs its own graph."""
    name, value = {"dense": ("DENSE_FACTOR_MIN_DENSITY", -1.0),
                   "sparse": ("DENSE_FACTOR_MAX_USERS", 0)}[kind]
    with mock.patch.object(graph, name, value):
        yield


def pair_columns_branch(store):
    """pair_columns(store), and whether it counted: it sorts through sorted_unique."""
    with mock.patch.object(preferences, "sorted_unique", wraps=preferences.sorted_unique) as spy:
        return preferences.pair_columns(store), not spy.called


def assert_same_ranking(items_a, items_b, scores_a, scores_b, tol: float) -> int:
    """Assert that two rankings agree up to ties within tol, and return
    the number of positions that hold different items.

    scores_a and scores_b score every item, one per side, and must agree
    within tol item by item.  items_a and items_b are rankings (item
    ids, best first) of the same length, each in non-increasing order of
    its own scores up to tol.  Position by position they hold the same
    item or two items whose scores are equal within tol: they differ
    only in order within runs of tied scores, and in which items of a
    run that crosses the last position made the list."""
    items_a, items_b = np.asarray(items_a), np.asarray(items_b)
    scores_a, scores_b = np.asarray(scores_a, float), np.asarray(scores_b, float)
    assert scores_a.shape == scores_b.shape
    apart = np.abs(scores_a - scores_b)
    assert np.all(apart <= tol), f"scores differ by {apart.max():.3g} > {tol:.3g}"
    assert items_a.shape == items_b.shape, (items_a, items_b)
    for items, scores in ((items_a, scores_a), (items_b, scores_b)):
        assert np.unique(items).size == items.size, f"repeated items in {items}"
        assert np.all(np.diff(scores[items]) <= tol), f"{items} is out of order"
    gap = np.abs(scores_a[items_a] - scores_a[items_b])
    bad = np.flatnonzero(gap > tol)
    assert bad.size == 0, (f"position {bad[0]} holds items {items_a[bad[0]]} and "
                           f"{items_b[bad[0]]}, scores {gap[bad[0]]:.3g} apart")
    return int(np.count_nonzero(items_a != items_b))
