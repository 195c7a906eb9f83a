"""The CSR preference store against the per-user set path it replaced.

The oracle below is the earlier implementation, kept here only: pairs
derived per user with `triu_indices`, the graph as one Python set per
user, edges listed by sorting each set, and both operators built
through COO.  Every array the CSR path produces must equal it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from helpers import random_ratings, random_store

from prefwalk import (PreferenceStore, UserPrefGraph, connectivity_report, derive_preferences,
                      encode_pair, user_pref_operators)
from prefwalk.preferences import sorted_unique

# -- the set-based oracle -------------------------------------------------------


def oracle_derive(dataset):
    """One sorted pair-id array per user, pairs generated per user."""
    arrays = []
    for u in range(dataset.n_users):
        items, ratings = dataset.user_rows(u)
        hi, lo = np.triu_indices(items.size, k=1)
        keep = ratings[hi] != ratings[lo]
        hi, lo = hi[keep], lo[keep]
        swap = ratings[hi] < ratings[lo]
        winners = np.where(swap, items[lo], items[hi])
        losers = np.where(swap, items[hi], items[lo])
        arrays.append(np.sort(encode_pair(winners, losers, dataset.n_items)))
    return arrays


def oracle_sets(store):
    return [set(int(p) for p in store.prefs_of(u)) for u in range(store.n_users)]


def oracle_edge_arrays(sets):
    users = np.array([u for u, s in enumerate(sets) for _ in s], dtype=np.int64)
    pids = np.array([p for s in sets for p in sorted(s)], dtype=np.int64)
    return users, pids


def oracle_operators(sets):
    users, pids = oracle_edge_arrays(sets)
    observed = sorted_unique(pids)
    cols = np.searchsorted(observed, pids)
    support = np.bincount(cols, minlength=observed.size).astype(np.float64)
    degrees = np.bincount(users, minlength=len(sets)).astype(np.float64)
    to_user = sparse.csr_matrix((1.0 / support[cols], (users, cols)),
                                shape=(len(sets), observed.size))
    to_pref = sparse.csr_matrix((1.0 / degrees[users], (cols, users)),
                                shape=(observed.size, len(sets)))
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(degrees.astype(np.int64), out=indptr[1:])
    return {"observed_ids": observed, "pref_support": support, "user_degrees": degrees,
            "pref_col_indptr": indptr, "pref_col_indices": cols,
            "pref_to_user": to_user, "user_to_pref": to_pref}


def oracle_connectivity(sets):
    users, pids = oracle_edge_arrays(sets)
    if users.size == 0:
        return (False, 0, 0, len(sets))
    observed = np.unique(pids)
    active = np.unique(users)
    n_nodes = active.size + observed.size
    adj = sparse.coo_matrix((np.ones(users.size), (np.searchsorted(active, users),
                                                   active.size + np.searchsorted(observed, pids))),
                            shape=(n_nodes, n_nodes))
    n_comp, _ = sparse.csgraph.connected_components(adj, directed=False)
    return (n_comp == 1, n_comp, active.size, len(sets) - active.size)


def same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def random_source(seed):
    """A store from ratings (derive_preferences) or from pairs, by seed."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        ds = random_ratings(rng, n_users=int(rng.integers(1, 9)), n_items=int(rng.integers(2, 9)),
                            min_per_user=int(rng.integers(1, 3)))
        if seed % 4 == 1:  # rows dropped as in a split: some users keep none
            ds = ds.subset(rng.random(ds.n_ratings) < 0.6)
        return ds, derive_preferences(ds)
    store = random_store(rng, n_users=int(rng.integers(0, 9)), n_items=int(rng.integers(2, 8)),
                         fill=float(rng.uniform(0.0, 0.9)))
    return None, store


# -- CSR path == oracle ---------------------------------------------------------


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2 ** 32 - 1))
def test_csr_path_matches_set_oracle(seed):
    ds, store = random_source(seed)
    if ds is not None:
        want = oracle_derive(ds)
        assert store.indptr[-1] == store.pair_ids.size == sum(a.size for a in want)
        for u, ids in enumerate(want):
            assert same_array(store.prefs_of(u), ids)
    sets = oracle_sets(store)
    g = UserPrefGraph.from_store(store)
    assert g.to_store() is store
    users = np.repeat(np.arange(store.n_users, dtype=np.int64), np.diff(store.indptr))
    pids = store.pair_ids
    want_users, want_pids = oracle_edge_arrays(sets)
    assert same_array(users, want_users) and same_array(pids, want_pids)
    assert [g.user_degree(u) for u in range(g.n_users)] == [len(s) for s in sets]
    assert store.total == sum(len(s) for s in sets)
    rep = connectivity_report(g)
    assert (rep.connected, rep.n_components, rep.n_active_users,
            rep.n_isolated_users) == oracle_connectivity(sets)
    if not pids.size:
        return
    ops, want = user_pref_operators(g), oracle_operators(sets)
    assert same_array(store.observed_ids(), want["observed_ids"])
    for name in ("observed_ids", "pref_support", "user_degrees"):
        assert same_array(getattr(ops, name), want[name]), name
    # the column map is L's own indptr and indices: the oracle's values, L's dtype
    to_user = ops.pref_to_user.matrix
    for name, own in (("pref_col_indptr", to_user.indptr), ("pref_col_indices", to_user.indices)):
        got = getattr(ops, name)
        assert np.shares_memory(got, own) and got.dtype == own.dtype, name
        assert np.array_equal(got, want[name]), name
    for name in ("pref_to_user", "user_to_pref"):
        got = getattr(ops, name).matrix
        assert got.format == "csr" and got.shape == want[name].shape
        for part in ("indptr", "indices", "data"):
            assert same_array(getattr(got, part), getattr(want[name], part)), (name, part)


def test_edges_too_large_to_key_rejected():
    with pytest.raises(ValueError):
        PreferenceStore.from_edges(2 ** 40, 2 ** 12, [], [])


def test_store_rejects_inconsistent_offsets():
    with pytest.raises(ValueError):
        PreferenceStore(2, 3, [0, 1], [1])
    with pytest.raises(ValueError):
        PreferenceStore(1, 3, [0, 2], [1])
    with pytest.raises(ValueError):
        PreferenceStore(3, 3, [0, 2, 1, 3], [1, 2, 5])


def test_store_rejects_unsorted_or_repeated_ids():
    # one user's run may start below where the previous one ended
    for indptr, ids in (([0, 2, 3], [2, 5, 1]), ([0, 0, 2, 2], [1, 5]), ([0, 2, 2, 2], [1, 5])):
        assert PreferenceStore(len(indptr) - 1, 3, indptr, ids).total == len(ids)
    for indptr, ids in (([0, 2, 3], [5, 1, 2]), ([0, 2, 3], [1, 1, 2]),
                        ([0, 0, 2, 2], [5, 1]), ([0, 1, 3], [7, 5, 5])):
        with pytest.raises(ValueError):
            PreferenceStore(len(indptr) - 1, 3, indptr, ids)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_from_edges_in_any_order(seed):
    _, store = random_source(seed)
    users = np.repeat(np.arange(store.n_users), np.diff(store.indptr))
    rng = np.random.default_rng(seed)
    # every edge once and some twice, in random order
    order = rng.permutation(np.r_[np.arange(users.size), rng.choice(users.size, users.size // 2)])
    again = PreferenceStore.from_edges(store.n_users, store.n_items, users[order],
                                       store.pair_ids[order])
    assert again == store
