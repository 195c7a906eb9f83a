import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import SuperLU

from helpers import assert_same_ranking, factor_kind, first_warm_user, random_store

from prefwalk import (ColdStartError, NumericalError, PreferenceStore, SplitSpec,
                      UserPrefGraph, UserWalkConfig, derive_preferences, item_pole_operators,
                      loads_ratings, rank_items_for_user, restart_vector, run_user_walk,
                      solve_user_walk, solve_user_walks, upl_split, user_pref_operators)
from prefwalk import graph as graph_module
from prefwalk.graph import DenseLU
from prefwalk.reference import (dense_fixed_point, dense_reference_ranking,
                                dense_restart_vector, dense_user_pref_matrices,
                                stacked_system)


def ops_for(store):
    return user_pref_operators(UserPrefGraph.from_store(store))


def test_config_validation():
    with pytest.raises(ValueError):
        UserWalkConfig(alpha=0.0)
    with pytest.raises(ValueError):
        UserWalkConfig(alpha=1.5)
    with pytest.raises(ValueError):
        UserWalkConfig(tol=0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            UserWalkConfig(tol=tol)
    with pytest.raises(ValueError):
        UserWalkConfig(max_iter=0)


def test_restart_single_preference():
    # one preference shared by three users: renormalization hides the support
    store = PreferenceStore.from_pairs(3, 2, [[(0, 1)], [(0, 1)], [(0, 1)]])
    d = restart_vector(ops_for(store), 0)
    assert list(d) == [1.0]


def test_restart_equal_support():
    store = PreferenceStore.from_pairs(1, 4, [[(0, 1), (2, 3)]])
    d = restart_vector(ops_for(store), 0)
    assert np.allclose(d, [0.5, 0.5])


def test_restart_support_discount():
    # target holds p1 (1 holder) and p2 (3 holders): raw (1, 1/3) -> (3/4, 1/4)
    store = PreferenceStore.from_pairs(
        3, 4, [[(0, 1), (2, 3)], [(2, 3)], [(2, 3)]])
    ops = ops_for(store)
    d = restart_vector(ops, 0)
    assert np.allclose(d, [0.75, 0.25])
    assert abs(d.sum() - 1.0) <= 1e-15


def test_restart_cold_user():
    store = PreferenceStore.from_pairs(2, 2, [[(0, 1)], []])
    with pytest.raises(ColdStartError):
        restart_vector(ops_for(store), 1)
    with pytest.raises(ValueError):
        restart_vector(ops_for(store), 5)


def test_alpha_one_pins_concordance_to_restart():
    store = random_store(np.random.default_rng(3), n_users=4, n_items=5)
    ops = ops_for(store)
    target = first_warm_user(store)
    d = restart_vector(ops, target)
    res = run_user_walk(ops.pref_to_user, ops.user_to_pref, d,
                        UserWalkConfig(alpha=1.0, max_iter=50))
    assert res.converged
    assert np.all(res.similarities == 0.0)
    assert np.abs(res.concordances - d).max() <= 1e-15


def test_single_user_single_preference_fixed_point():
    store = PreferenceStore.from_pairs(1, 2, [[(0, 1)]])
    ops = ops_for(store)
    d = restart_vector(ops, 0)
    res = run_user_walk(ops.pref_to_user, ops.user_to_pref, d,
                        UserWalkConfig(alpha=0.15, tol=1e-12, max_iter=500))
    assert res.converged
    # hand-derived fixed point: s = 0.85 c, c = 0.85 s + 0.15  =>  (17/37, 20/37)
    assert abs(res.similarities[0] - 17 / 37) <= 1e-10
    assert abs(res.concordances[0] - 20 / 37) <= 1e-10
    # cross-check against the dominant eigenvector of the 2x2 stacked system
    g = 0.85 * np.array([[0.0, 1.0], [1.0, 0.0]]) + 0.15 * np.outer([0.0, 1.0], [1, 1])
    vals, vecs = np.linalg.eig(g)
    lead = vecs[:, np.argmax(vals.real)].real
    lead /= lead.sum()
    assert abs(res.similarities[0] - lead[0]) <= 1e-10
    assert abs(res.concordances[0] - lead[1]) <= 1e-10


def test_matches_dense_power_iteration():
    rng = np.random.default_rng(9)
    for _ in range(5):
        store = random_store(rng, n_users=5, n_items=4, fill=0.5)
        ops = ops_for(store)
        target = first_warm_user(store)
        d = restart_vector(ops, target)
        res = run_user_walk(ops.pref_to_user, ops.user_to_pref, d)
        _, _, l_dense, m_dense = dense_user_pref_matrices(store)
        system = stacked_system(l_dense, m_dense, np.zeros(store.n_users), d, 0.15)
        z = dense_fixed_point(system)
        assert np.abs(res.similarities - z[:store.n_users]).max() <= 1e-9
        assert np.abs(res.concordances - z[store.n_users:]).max() <= 1e-9


def test_dense_restart_vector_agrees():
    store = random_store(np.random.default_rng(21), n_users=5, n_items=5)
    ops = ops_for(store)
    target = first_warm_user(store)
    observed, a, _, _ = dense_user_pref_matrices(store)
    dense_d = dense_restart_vector(store, target, observed, a.sum(axis=0))
    assert np.abs(restart_vector(ops, target) - dense_d).max() <= 1e-15


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_mass_conservation_and_residual(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=5, n_items=5, fill=0.5)
    ops = ops_for(store)
    target = first_warm_user(store)
    d = restart_vector(ops, target)
    cfg = UserWalkConfig(alpha=0.15, tol=1e-10, max_iter=300)
    res = run_user_walk(ops.pref_to_user, ops.user_to_pref, d, cfg)
    assert abs(res.similarities.sum() + res.concordances.sum() - 1.0) <= 1e-12
    assert res.converged and res.residual < cfg.tol
    # the returned vectors are an (almost) fixed point: one more sweep moves
    # them by at most tol plus the renormalization slack tol/alpha
    s2 = 0.85 * ops.pref_to_user.apply(res.concordances)
    c2 = 0.85 * ops.user_to_pref.apply(res.similarities) + 0.15 * d
    moved = np.abs(s2 - res.similarities).sum() + np.abs(c2 - res.concordances).sum()
    assert moved <= cfg.tol * (1.0 + 3.0 / cfg.alpha)


def test_deterministic():
    store = random_store(np.random.default_rng(17), n_users=6, n_items=6)
    ops = ops_for(store)
    target = first_warm_user(store)
    d = restart_vector(ops, target)
    r1 = run_user_walk(ops.pref_to_user, ops.user_to_pref, d)
    r2 = run_user_walk(ops.pref_to_user, ops.user_to_pref, d)
    assert np.array_equal(r1.similarities, r2.similarities)
    assert np.array_equal(r1.concordances, r2.concordances)
    assert r1.iterations == r2.iterations


def test_restart_shape_checked():
    store = random_store(np.random.default_rng(2), n_users=3, n_items=4)
    ops = ops_for(store)
    with pytest.raises(ValueError):
        run_user_walk(ops.pref_to_user, ops.user_to_pref, np.ones(1) * 1.0)
    with pytest.raises(ValueError):
        solve_user_walk(ops, store.n_users)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0))
def test_exact_matches_converged_iterate(seed, alpha):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(1, 8)),
                         n_items=int(rng.integers(2, 7)), fill=0.5)
    if store.total == 0:
        return
    ops = ops_for(store)
    target = first_warm_user(store)
    d = restart_vector(ops, target)
    exact = solve_user_walk(ops, target, UserWalkConfig(alpha=alpha))
    it = run_user_walk(ops.pref_to_user, ops.user_to_pref, d,
                       UserWalkConfig(alpha=alpha, tol=1e-14, max_iter=5000))
    assert it.converged
    assert np.abs(exact.similarities - it.similarities).max() <= 1e-11
    assert np.abs(exact.concordances - it.concordances).max() <= 1e-11
    assert abs(exact.similarities.sum() + exact.concordances.sum() - 1.0) <= 1e-12
    assert exact.iterations == 0
    assert exact.converged and exact.residual < 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_exact_alpha_one_pins_concordance_to_restart(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(1, 7)), n_items=5, fill=0.5)
    if store.total == 0:
        return
    ops = ops_for(store)
    target = first_warm_user(store)
    d = restart_vector(ops, target)
    res = solve_user_walk(ops, target, UserWalkConfig(alpha=1.0))
    assert np.all(res.similarities == 0.0)
    assert np.abs(res.concordances - d).max() <= 1e-15
    assert res.converged


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0))
def test_factor_reuse_matches_fresh_operators(seed, alpha):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(1, 8)), n_items=5, fill=0.5)
    if store.total == 0:
        return
    warm = [u for u in range(store.n_users) if store.count(u) > 0]
    for kind, factor_type in (("dense", DenseLU), ("sparse", SuperLU)):
        with factor_kind(kind):
            shared = ops_for(store)
            for cfg in (UserWalkConfig(alpha=alpha), UserWalkConfig(),
                        UserWalkConfig(alpha=alpha)):
                for u in warm:  # the shared operators reuse one factor per alpha
                    reused = solve_user_walk(shared, u, cfg)
                    fresh = solve_user_walk(ops_for(store), u, cfg)
                    assert np.array_equal(reused.similarities, fresh.similarities)
                    assert np.array_equal(reused.concordances, fresh.concordances)
        # memoized: the kind stays as built after the rule changes back
        assert type(shared.user_walk_factor(alpha)) is factor_type
        assert shared.user_walk_factor(alpha) is shared.user_walk_factor(alpha)
        assert set(shared._factors) == {alpha, UserWalkConfig().alpha}


def _disjoint_store(n_users, shared=0):
    """User u holds only the pair (2u, 2u + 1), so L @ M is diagonal;
    users 1 .. shared also hold user 0's pair, adding 2 * shared
    off-diagonal entries."""
    rows = [[(2 * u, 2 * u + 1)] + ([(0, 1)] if 0 < u <= shared else [])
            for u in range(n_users)]
    return PreferenceStore.from_pairs(n_users, 2 * n_users, rows)


def test_factor_kind_follows_coupling_density(monkeypatch):
    # 8 users: dense takes more than 8**2 / 8 = 8 coupling entries
    for shared, factor_type in ((0, SuperLU), (1, DenseLU)):
        ops = ops_for(_disjoint_store(8, shared))
        assert ops.user_space.coupling.nnz == 8 + 2 * shared
        assert type(ops.user_walk_factor(0.15)) is factor_type
    # the same density beyond the user cap stays sparse
    store = random_store(np.random.default_rng(4), n_users=6, n_items=6, fill=0.6)
    assert ops_for(store).user_space.coupling.nnz > 6 * 6 / 8
    for cap, factor_type in ((6, DenseLU), (5, SuperLU)):
        monkeypatch.setattr(graph_module, "DENSE_FACTOR_MAX_USERS", cap)
        assert type(ops_for(store).user_walk_factor(0.15)) is factor_type


def test_dense_factor_failure_raises_not_ranks(monkeypatch):
    with pytest.raises(NumericalError, match="getrf info 3"):
        DenseLU(np.asfortranarray(np.diag([1.0, 2.0, 0.0])))
    store = random_store(np.random.default_rng(4), n_users=6, n_items=6, fill=0.6)
    ops = ops_for(store)
    real = graph_module.dgetrf

    def failing(matrix, overwrite_a):
        lu, piv, _ = real(matrix, overwrite_a=overwrite_a)
        return lu, piv, 2

    monkeypatch.setattr(graph_module, "dgetrf", failing)
    with pytest.raises(NumericalError):
        rank_items_for_user(ops, *item_pole_operators(store.n_items), first_warm_user(store))
    assert not ops._factors


def _bench_generator():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_benchmark_splits_keep_the_sparse_factor():
    # the seed-1 benchmark file's upl=10 and upl=30 train splits, built
    # in memory as the benchmark builds them, stay on SuperLU, so their
    # NDCG cells and diagnostic rows keep the sparse path's sums
    gen = _bench_generator()
    ds = loads_ratings(gen.encode(*gen.generate(1)).decode("ascii"))
    for upl in (10, 30):
        train = upl_split(ds, SplitSpec(upl, seed=1, repetitions=1), 0)[0]
        ops = user_pref_operators(UserPrefGraph.from_store(derive_preferences(train)))
        assert type(ops.user_walk_factor(UserWalkConfig().alpha)) is SuperLU


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_dense_factor_ranks_as_reference_and_sparse(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(2, 30)),
                         n_items=int(rng.integers(3, 10)), fill=0.5)
    if store.total == 0:
        return
    target, n = first_warm_user(store), store.n_items
    poles = item_pole_operators(n)
    alpha = float(rng.uniform(0.05, 1.0))
    outcomes, sims = {}, {}
    for kind, factor_type in (("dense", DenseLU), ("sparse", SuperLU)):
        with factor_kind(kind):
            ops = ops_for(store)
            outcomes[kind] = rank_items_for_user(ops, *poles, target, k=n,
                                                 walk1=UserWalkConfig(alpha=alpha))
            sims[kind] = solve_user_walks(ops, [target], UserWalkConfig(alpha=alpha)).similarities
            assert type(ops.user_walk_factor(alpha)) is factor_type
    dense, sparse = outcomes["dense"], outcomes["sparse"]
    ref = dense_reference_ranking(store, target, alpha=alpha, k=n, tol=1e-15, max_iter=5000)
    assert_same_ranking(dense.items, ref.items, dense.scored.scores, ref.scores, 1e-12)
    assert_same_ranking(dense.items, sparse.items, dense.scored.scores, sparse.scored.scores,
                        1e-14)
    assert np.abs(sims["dense"] - sims["sparse"]).max() <= 1e-14
