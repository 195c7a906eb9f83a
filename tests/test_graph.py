import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from helpers import random_store

from prefwalk import (EmptyGraphError, PreferenceStore, UserPrefGraph, connectivity_report,
                      item_pole_operators, user_pref_operators)
from prefwalk.preferences import decode_pair
from prefwalk.reference import dense_pole_matrices, dense_user_pref_matrices


def two_user_store():
    # u1 holds (A,B); u2 holds (A,B) and (B,C)
    return PreferenceStore.from_pairs(2, 3, [[(0, 1)], [(0, 1), (1, 2)]])


def test_counts_from_store():
    store = two_user_store()
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    assert ops.observed_ids.size == 2
    assert store.total == 3
    assert list(ops.pref_support) == [2.0, 1.0]
    assert list(ops.user_degrees) == [1.0, 2.0]


def test_single_user_k_preferences():
    store = PreferenceStore.from_pairs(1, 5, [[(0, 1), (2, 3), (4, 0)]])
    assert user_pref_operators(UserPrefGraph.from_store(store)).observed_ids.size == 3
    assert store.total == 3


def test_store_roundtrip_and_equality():
    store = random_store(np.random.default_rng(0))
    g = UserPrefGraph.from_store(store)
    assert g.to_store() is store
    assert (g.n_users, g.n_items) == (store.n_users, store.n_items)
    assert [g.user_degree(u) for u in range(g.n_users)] == list(np.diff(store.indptr))


def test_degree_shows_up_in_operator():
    store = PreferenceStore.from_pairs(1, 5, [[(0, 1), (1, 2), (2, 3), (3, 4)]])
    g = UserPrefGraph.from_store(store)
    assert g.user_degree(0) == 4
    ops = user_pref_operators(g)
    col = ops.user_to_pref.matrix[:, 0].toarray().ravel()
    assert np.allclose(col[col > 0], 0.25)


def test_pref_to_user_column_halves():
    ops = user_pref_operators(UserPrefGraph.from_store(two_user_store()))
    shared = ops.pref_to_user.matrix[:, 0].toarray().ravel()
    assert list(shared) == [0.5, 0.5]


def test_operators_match_dense_and_are_stochastic():
    rng = np.random.default_rng(8)
    store = random_store(rng, n_users=20, n_items=15, fill=0.15)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    observed, a, l_dense, m_dense = dense_user_pref_matrices(store)
    assert np.array_equal(ops.observed_ids, observed)
    assert np.abs(ops.pref_to_user.matrix.toarray() - l_dense).max() == 0.0
    assert np.abs(ops.user_to_pref.matrix.toarray() - m_dense).max() == 0.0
    lsum = np.asarray(ops.pref_to_user.matrix.sum(axis=0)).ravel()
    assert np.abs(lsum - 1.0).max() <= 1e-12
    msum = np.asarray(ops.user_to_pref.matrix.sum(axis=0)).ravel()
    active = ops.user_degrees > 0
    assert np.abs(msum[active] - 1.0).max() <= 1e-12
    assert np.all(msum[~active] == 0.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_pair_id_sets_match_np_unique(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(1, 9)),
                         n_items=int(rng.integers(2, 8)), fill=float(rng.uniform(0.05, 0.9)))
    g = UserPrefGraph.from_store(store)
    users, pids = np.repeat(np.arange(store.n_users), np.diff(store.indptr)), store.pair_ids
    assert np.array_equal(store.observed_ids(), np.unique(pids))
    rep = connectivity_report(g)
    assert rep.n_active_users == np.unique(users).size
    if users.size:
        ops = user_pref_operators(g)
        assert np.array_equal(ops.observed_ids, np.unique(pids))
        assert np.array_equal(ops.pref_col_indices, np.unique(pids, return_inverse=True)[1])


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_user_space_matches_dense(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(1, 8)),
                         n_items=int(rng.integers(2, 7)), fill=0.5)
    if store.total == 0:
        return
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    observed, _, l_dense, m_dense = dense_user_pref_matrices(store)
    n = store.n_items
    winners, losers = decode_pair(observed, n)
    b_dense = np.zeros((2 * n, observed.size))
    b_dense[winners, np.arange(observed.size)] = 1.0
    b_dense[n + losers, np.arange(observed.size)] = 1.0
    space = ops.user_space
    for got, want in ((space.coupling, l_dense @ m_dense), (space.gram, l_dense @ l_dense.T),
                      (space.poles_from_users, b_dense @ m_dense),
                      (space.poles_from_restart, b_dense @ l_dense.T)):
        assert np.abs(got.toarray() - want).max() <= 1e-15
    # restart_mass adds each row's k terms in an order of scipy's choosing, so it
    # is within gamma(k - 1) = (k - 1)u / (1 - (k - 1)u) of the exact row sum, as a
    # fraction of it (Higham, Accuracy and Stability of Numerical Algorithms, 4.2)
    u = Fraction(np.finfo(np.float64).eps) / 2
    for got, row in zip(space.restart_mass, l_dense):
        terms = [Fraction(x) for x in row if x]
        n, exact = max(len(terms) - 1, 0), sum(terms, Fraction(0))
        assert abs(Fraction(got) - exact) <= n * u / (1 - n * u) * exact
    assert ops.user_space is space


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        user_pref_operators(UserPrefGraph.from_store(PreferenceStore(3, 3, [0] * 4, [])))


def test_pole_operator_shapes_small():
    w_dense, _ = dense_pole_matrices(2)
    incidence = w_dense * (2 - 1)
    assert incidence.shape == (2, 4)
    assert np.all(np.isin(incidence, [0.0, 1.0]))
    assert np.all(incidence.sum(axis=1) == 2)


def test_pole_incidence_column_sums():
    w_dense, _ = dense_pole_matrices(3)
    incidence = w_dense * (3 - 1)
    assert np.all(incidence.sum(axis=0) == 2)  # n_items - 1


def test_pole_operators_need_two_items():
    with pytest.raises(ValueError):
        item_pole_operators(1)


def test_connectivity_report():
    connected = PreferenceStore.from_pairs(2, 3, [[(0, 1)], [(0, 1), (1, 2)]])
    rep = connectivity_report(UserPrefGraph.from_store(connected))
    assert rep.connected and rep.n_components == 1
    assert rep.n_active_users == 2 and rep.n_isolated_users == 0

    # two islands that share no preference, plus one isolated user
    split = PreferenceStore.from_pairs(3, 4, [[(0, 1)], [(2, 3)], []])
    rep = connectivity_report(UserPrefGraph.from_store(split))
    assert not rep.connected and rep.n_components == 2
    assert rep.n_isolated_users == 1

    rep = connectivity_report(UserPrefGraph.from_store(PreferenceStore(2, 2, [0] * 3, [])))
    assert not rep.connected and rep.n_components == 0


def _bipartite_connectivity(store):
    """connectivity_report's fields, found as before the graph shared its
    operators: a column map of its own, from np.unique, and a
    user/preference adjacency built from the store."""
    isolated = int(np.count_nonzero(np.diff(store.indptr) == 0))
    observed, cols = np.unique(store.pair_ids, return_inverse=True)
    n_nodes = store.n_users + observed.size
    indptr = np.r_[store.indptr, np.full(observed.size, store.total)]
    adj = sparse.csr_matrix((np.ones(cols.size), cols + store.n_users, indptr),
                            shape=(n_nodes, n_nodes))
    n_comp = csgraph.connected_components(adj, directed=False)[0] - isolated
    return n_comp == 1, n_comp, store.n_users - isolated, isolated


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_connectivity_report_matches_bipartite_construction(seed):
    rng = np.random.default_rng(seed)
    base = random_store(rng, n_users=int(rng.integers(0, 10)), n_items=int(rng.integers(2, 8)),
                        fill=float(rng.uniform(0.0, 0.4)))
    # users with no preferences, anywhere among the others
    at = np.sort(rng.integers(0, base.n_users + 1, size=int(rng.integers(0, 4))))
    store = PreferenceStore(base.n_users + at.size, base.n_items,
                            np.insert(base.indptr, at, base.indptr[at]), base.pair_ids)
    g = UserPrefGraph.from_store(store)
    rep = connectivity_report(g)
    assert dataclasses.astuple(rep) == _bipartite_connectivity(store)
    assert connectivity_report(g) is rep
