import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_ratings

from prefwalk import (PreferenceConflictError, PreferenceStore, decode_pair,
                      dense_index, derive_preferences, encode_pair, loads_ratings,
                      universe_size)
from prefwalk.preferences import sorted_unique


def test_encode_decode_roundtrip_scalar():
    pid = encode_pair(2, 5, n_items=7)
    assert pid == 19
    assert decode_pair(pid, 7) == (2, 5)


@given(st.integers(2, 40), st.data())
def test_encode_decode_roundtrip(n, data):
    w = data.draw(st.integers(0, n - 1))
    l = data.draw(st.integers(0, n - 1).filter(lambda x: x != w))
    w2, l2 = decode_pair(encode_pair(w, l, n), n)
    assert (w2, l2) == (w, l)


def test_dense_index_enumerates_offdiagonal():
    n = 5
    ids = [w * n + l for w in range(n) for l in range(n) if w != l]
    assert list(dense_index(np.array(ids), n)) == list(range(n * (n - 1)))


def test_universe_size():
    assert universe_size(2) == 2
    assert universe_size(3) == 6
    assert universe_size(1682) == 1682 * 1681


def test_derive_single_pair():
    ds = loads_ratings("1\t10\t5\n1\t11\t3")
    store = derive_preferences(ds)
    # items get dense ids in appearance order: 10 -> 0, 11 -> 1
    assert list(store.prefs_of(0)) == [encode_pair(0, 1, 2)]


def test_derive_tie_emits_nothing():
    ds = loads_ratings("1\t10\t4\n1\t11\t4")
    assert derive_preferences(ds).count(0) == 0


def test_derive_three_ordered_ratings():
    ds = loads_ratings("1\t10\t5\n1\t11\t3\n1\t12\t1")
    store = derive_preferences(ds)
    n = 3
    expected = {encode_pair(0, 1, n), encode_pair(0, 2, n), encode_pair(1, 2, n)}
    assert set(store.prefs_of(0)) == expected
    assert store.count(0) == 3


def test_derive_mixed_ties():
    # A=4, B=2, C=4, D=1 over four items: the A/C tie contributes nothing
    ds = loads_ratings("1\t10\t4\n1\t11\t2\n1\t12\t4\n1\t13\t1")
    store = derive_preferences(ds)
    n = 4
    expected = sorted([
        encode_pair(0, 1, n), encode_pair(0, 3, n),
        encode_pair(2, 1, n), encode_pair(2, 3, n),
        encode_pair(1, 3, n),
    ])
    assert list(store.prefs_of(0)) == expected


@given(st.integers(0, 2 ** 32 - 1))
def test_derive_is_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    store = derive_preferences(random_ratings(rng, n_users=4, n_items=6))
    n = store.n_items
    for u in range(store.n_users):
        held = set(int(p) for p in store.prefs_of(u))
        for pid in held:
            w, l = decode_pair(pid, n)
            assert int(l) * n + int(w) not in held


def test_from_pairs_conflict_rejected():
    with pytest.raises(PreferenceConflictError):
        PreferenceStore.from_pairs(1, 3, [[(0, 1), (1, 0)]])
    with pytest.raises(PreferenceConflictError):
        PreferenceStore.from_pairs(2, 3, [[(0, 1)], [(1, 0), (2, 1), (1, 2)]])
    # different users may hold opposite orientations
    assert PreferenceStore.from_pairs(2, 3, [[(0, 1)], [(1, 0)]]).total == 2


def test_from_pairs_collapses_duplicates():
    store = PreferenceStore.from_pairs(1, 3, [[(0, 1), (0, 1), (2, 1)]])
    assert store.count(0) == 2


def test_from_pairs_rejects_out_of_range():
    with pytest.raises(ValueError):
        PreferenceStore.from_pairs(1, 3, [[(0, 3)]])
    with pytest.raises(ValueError):
        PreferenceStore.from_pairs(1, 3, [[(1, 1)]])


def test_from_pairs_needs_one_iterable_per_user():
    for n_users in (0, 2, 5):
        with pytest.raises(ValueError):
            PreferenceStore.from_pairs(n_users, 3, [[(0, 1)]])
    store = PreferenceStore.from_pairs(3, 3, [[(0, 1)], [], []])
    assert store.n_users == 3 and store.count(2) == 0


def test_store_equality_compares_arrays():
    rows = [[(0, 1), (2, 1)], [(1, 0), (2, 0), (2, 1)]]
    a = PreferenceStore.from_pairs(2, 3, rows)
    assert a == PreferenceStore.from_pairs(2, 3, [list(reversed(r)) for r in rows])
    assert a != PreferenceStore.from_pairs(2, 3, [rows[0], [(1, 0), (0, 2), (2, 1)]])
    assert a != PreferenceStore.from_pairs(2, 4, rows)
    assert a != PreferenceStore.from_pairs(3, 3, rows + [[]])
    assert a != object()


def test_observed_ids_union():
    store = PreferenceStore.from_pairs(2, 3, [[(0, 1)], [(0, 1), (2, 0)]])
    assert list(store.observed_ids()) == [encode_pair(0, 1, 3), encode_pair(2, 0, 3)]
    assert store.total == 3


@given(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=300))
def test_sorted_unique_matches_np_unique(values):
    v = np.array(values, dtype=np.int64)
    got = sorted_unique(v)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(v))


def test_observed_ids_of_empty_store():
    store = PreferenceStore(2, 3, np.zeros(3, np.int64), np.empty(0, np.int64))
    assert store.observed_ids().size == 0 and store.observed_ids().dtype == np.int64
    assert PreferenceStore(0, 3, [0], []).observed_ids().size == 0
