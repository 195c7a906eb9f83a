import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefwalk import (ItemWalkConfig, ItemWalkResult, RestartVector, ScoredItems,
                      build_restart, encode_pair, item_pole_operators, item_scores,
                      recommend_topk, run_item_walk, score_items, solve_item_walk)
from prefwalk.reference import dense_fixed_point, dense_pole_matrices, stacked_system
from prefwalk.preferences import dense_index


def make_restart(n_items, pairs, weights=None):
    ids = np.sort(np.array([encode_pair(w, l, n_items) for w, l in pairs], dtype=np.int64))
    if weights is None:
        weights = np.full(len(pairs), 1.0 / len(pairs))
    return RestartVector(n_items, ids, np.asarray(weights, dtype=np.float64))


def test_config_validation():
    with pytest.raises(ValueError):
        ItemWalkConfig(beta=0.0)
    with pytest.raises(ValueError):
        ItemWalkConfig(tol=-1.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ItemWalkConfig(tol=tol)
    with pytest.raises(ValueError):
        ItemWalkConfig(max_iter=0)


def test_build_restart_normalizes():
    q = build_restart(np.array([0.2, 0.2]), np.array([1, 2]), 2)
    assert np.allclose(q.weights, [0.5, 0.5])
    q = build_restart(np.array([0.0, 0.7]), np.array([1, 2]), 2)
    assert np.allclose(q.weights, [0.0, 1.0])


def test_build_restart_proportional():
    rng = np.random.default_rng(0)
    c = rng.random(10)
    n = 6
    ids = np.sort(rng.choice(n * (n - 1), size=10, replace=False))
    # choice over the diagonal-free enumeration, mapped back to pair ids
    offdiag = np.flatnonzero(~np.eye(n, dtype=bool).ravel())
    q = build_restart(c, offdiag[ids], n)
    assert abs(q.weights.sum() - 1.0) <= 1e-12
    assert np.allclose(q.weights * c.sum(), c)


def test_build_restart_rejects_zero_mass():
    with pytest.raises(ValueError):
        build_restart(np.zeros(3), np.array([1, 2, 3]), 3)


def test_restart_vector_validation():
    with pytest.raises(ValueError):
        RestartVector(3, np.array([1, 2]), np.array([0.5]))
    with pytest.raises(ValueError):
        RestartVector(3, np.empty(0, dtype=np.int64), np.empty(0))
    with pytest.raises(ValueError):
        RestartVector(3, np.array([1]), np.array([0.5]))  # mass != 1


def test_beta_one_returns_restart():
    n = 4
    w_op, t_op = item_pole_operators(n)
    q = make_restart(n, [(0, 1), (2, 3)], [0.25, 0.75])
    res = run_item_walk(w_op, t_op, q, ItemWalkConfig(beta=1.0, max_iter=50))
    assert res.converged
    assert np.all(res.pole_mass == 0.0)
    expected = np.zeros(n * n)
    expected[q.pair_ids] = q.weights
    assert np.abs(res.pref_mass - expected).max() <= 1e-15
    scored = score_items(res)
    assert np.all(scored.scores == 0.0) and not scored.defined.any()


def test_two_item_symmetric_fixed_point():
    n = 2
    w_op, t_op = item_pole_operators(n)
    q = make_restart(n, [(0, 1)])
    res = run_item_walk(w_op, t_op, q, ItemWalkConfig(tol=1e-12, max_iter=500))
    assert res.converged
    # hand-derived: x = 0.85**2 x + 0.15  =>  mass 20/37 on the restart pair,
    # 17/74 on each of its two poles, (numerically) nothing anywhere else
    assert abs(res.pref_mass[encode_pair(0, 1, n)] - 20 / 37) <= 1e-10
    assert res.pref_mass[encode_pair(1, 0, n)] <= 1e-11
    assert abs(res.win_mass[0] - 17 / 74) <= 1e-10
    assert abs(res.loss_mass[1] - 17 / 74) <= 1e-10
    # the structural symmetry of the 2-item graph
    assert abs(res.win_mass[0] - res.loss_mass[1]) <= 1e-15
    assert abs(res.win_mass[1] - res.loss_mass[0]) <= 1e-15
    scored = score_items(res)
    assert scored.scores[0] >= 1.0 - 1e-10 and scored.scores[1] <= 1e-10
    assert scored.defined.all()


def dense_trajectory(n, q, beta, sweeps):
    """Plain stacked-system iteration, returning the final vector and
    the last L1 step size."""
    w_dense, t_dense = dense_pole_matrices(n)
    uni = n * (n - 1)
    q_dense = np.zeros(uni)
    q_dense[dense_index(q.pair_ids, n)] = q.weights
    system = stacked_system(w_dense, t_dense, q_dense, np.zeros(2 * n), beta)
    z = system.block_uniform_start()
    keep = 1.0 - beta
    residual = np.inf
    for _ in range(sweeps):
        z_next = keep * (system.matrix @ z) + beta * system.restart
        residual = np.abs(z_next - z).sum()
        z = z_next
    return z / z.sum(), residual


@pytest.mark.parametrize("sweeps", [1, 2, 3, 7])
def test_matches_dense_trajectory(sweeps):
    rng = np.random.default_rng(31)
    n = 4
    w_op, t_op = item_pole_operators(n)
    uni_ids = np.flatnonzero(~np.eye(n, dtype=bool).ravel())
    ids = np.sort(rng.choice(uni_ids, size=5, replace=False))
    weights = rng.random(5)
    q = RestartVector(n, ids, weights / weights.sum())
    res = run_item_walk(w_op, t_op, q, ItemWalkConfig(tol=1e-300, max_iter=sweeps))
    z, last_step = dense_trajectory(n, q, 0.15, sweeps)
    offdiag = np.ones(n * n, dtype=bool)
    offdiag[:: n + 1] = False
    assert np.abs(res.pref_mass[offdiag] - z[:n * (n - 1)]).max() <= 1e-14
    assert np.all(res.pref_mass[~offdiag] == 0.0)
    assert np.abs(res.pole_mass - z[n * (n - 1):]).max() <= 1e-14
    # the structured residual equals the dense L1 step exactly
    assert abs(res.residual - last_step) <= 1e-14
    assert res.iterations == sweeps and not res.converged


def test_matches_dense_fixed_point():
    rng = np.random.default_rng(77)
    for n in (3, 4, 6):
        w_op, t_op = item_pole_operators(n)
        uni_ids = np.flatnonzero(~np.eye(n, dtype=bool).ravel())
        take = min(4, len(uni_ids))
        ids = np.sort(rng.choice(uni_ids, size=take, replace=False))
        weights = rng.random(take)
        q = RestartVector(n, ids, weights / weights.sum())
        res = run_item_walk(w_op, t_op, q)
        w_dense, t_dense = dense_pole_matrices(n)
        q_dense = np.zeros(n * (n - 1))
        q_dense[dense_index(q.pair_ids, n)] = q.weights
        system = stacked_system(w_dense, t_dense, q_dense, np.zeros(2 * n), 0.15)
        z = dense_fixed_point(system)
        offdiag = np.ones(n * n, dtype=bool)
        offdiag[:: n + 1] = False
        assert np.abs(res.pref_mass[offdiag] - z[:n * (n - 1)]).max() <= 1e-9
        assert np.abs(res.pole_mass - z[n * (n - 1):]).max() <= 1e-9


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_mass_conservation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    w_op, t_op = item_pole_operators(n)
    uni_ids = np.flatnonzero(~np.eye(n, dtype=bool).ravel())
    take = int(rng.integers(1, len(uni_ids) + 1))
    ids = np.sort(rng.choice(uni_ids, size=take, replace=False))
    weights = rng.random(take) + 1e-3
    q = RestartVector(n, ids, weights / weights.sum())
    res = run_item_walk(w_op, t_op, q, ItemWalkConfig(max_iter=300))
    assert res.converged
    assert abs(res.pref_mass.sum() + res.pole_mass.sum() - 1.0) <= 1e-9
    assert np.all(res.pref_mass >= 0.0) and np.all(res.pole_mass >= 0.0)


def test_operator_mismatch_rejected():
    # the walk reads the pole operators' item count, and only that
    (w3, t3), (w4, t4) = item_pole_operators(3), item_pole_operators(4)
    q = make_restart(3, [(0, 1)])
    for poles in ((w3, t4), (w4, t3), (w4, t4)):
        with pytest.raises(ValueError):
            run_item_walk(*poles, q)


def fake_result(win, loss):
    n = len(win)
    q = make_restart(n, [(0, 1)])
    return ItemWalkResult(
        n_items=n, pole_mass=np.concatenate([win, loss]), iterations=1,
        residual=0.0, converged=True, _outer_a=np.zeros(n), _outer_b=np.zeros(n),
        _restart_rate=0.0, _restart=q)


def test_score_arithmetic():
    scored = score_items(fake_result(np.array([0.3, 0.2, 0.0]),
                                     np.array([0.1, 0.2, 0.0])))
    assert np.allclose(scored.scores, [0.75, 0.5, 0.0])
    assert list(scored.defined) == [True, True, False]


def test_score_floor():
    # only poles holding exactly no mass leave an item undefined; any
    # positive mass, however small, gives the item its win share
    scored = score_items(fake_result(np.array([2.5e-16, 5e-324, 0.0, 0.0]),
                                     np.array([2.5e-16, 5e-324, 1e-300, 0.0])))
    assert list(scored.scores) == [0.5, 0.5, 0.0, 0.0]
    assert list(scored.defined) == [True, True, True, False]


def test_recommend_topk():
    scored = ScoredItems(np.array([0.9, 0.2, 0.5]), np.ones(3, dtype=bool))
    assert list(recommend_topk(scored, 2, exclude={0})) == [2, 1]
    assert list(recommend_topk(scored, 2)) == [0, 2]
    assert list(recommend_topk(scored, 0)) == []
    assert list(recommend_topk(scored, 10)) == [0, 2, 1]
    with pytest.raises(ValueError):
        recommend_topk(scored, -1)


def test_recommend_ties_break_by_id():
    scored = ScoredItems(np.array([0.5, 0.5, 0.5]), np.ones(3, dtype=bool))
    assert list(recommend_topk(scored, 3)) == [0, 1, 2]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0, np.nan]),
                max_size=40),
       st.integers(0, 45), st.data())
def test_topk_matches_stable_argsort(values, k, data):
    # heavily tied scores, so the k-th position usually falls inside a tie
    scores = np.array(values, dtype=np.float64)
    exclude = data.draw(st.lists(st.integers(0, max(0, scores.size - 1)),
                                 max_size=scores.size))
    order = np.argsort(-scores, kind="stable")
    order = order[~np.isin(order, exclude)]
    got = recommend_topk(ScoredItems(scores, np.ones(scores.size, dtype=bool)), k, exclude)
    assert got.dtype == np.int64
    assert np.array_equal(got, order[:k])


def test_deterministic():
    n = 5
    w_op, t_op = item_pole_operators(n)
    q = make_restart(n, [(0, 1), (3, 2), (4, 0)], [0.2, 0.5, 0.3])
    r1 = run_item_walk(w_op, t_op, q)
    r2 = run_item_walk(w_op, t_op, q)
    assert np.array_equal(r1.pole_mass, r2.pole_mass)
    assert np.array_equal(r1.pref_mass, r2.pref_mass)
    assert r1.iterations == r2.iterations and r1.residual == r2.residual


def random_restart(rng, n):
    uni_ids = np.flatnonzero(~np.eye(n, dtype=bool).ravel())
    take = int(rng.integers(1, len(uni_ids) + 1))
    ids = np.sort(rng.choice(uni_ids, size=take, replace=False))
    weights = rng.random(take) + 1e-3
    return RestartVector(n, ids, weights / weights.sum())


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0))
def test_closed_form_matches_converged_iterate(seed, beta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    w_op, t_op = item_pole_operators(n)
    q = random_restart(rng, n)
    exact = solve_item_walk(q, ItemWalkConfig(beta=beta))
    it = run_item_walk(w_op, t_op, q, ItemWalkConfig(beta=beta, tol=1e-14, max_iter=5000))
    assert it.converged
    assert np.abs(exact.pole_mass - it.pole_mass).max() <= 1e-11
    assert np.abs(exact.pref_mass - it.pref_mass).max() <= 1e-11
    assert abs(exact.pref_mass.sum() + exact.pole_mass.sum() - 1.0) <= 1e-12
    assert np.all(exact.pref_mass >= 0.0) and np.all(exact.pole_mass >= 0.0)
    assert exact.iterations == 0
    assert exact.converged and exact.residual < 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_form_beta_one_returns_restart(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    q = random_restart(rng, n)
    res = solve_item_walk(q, ItemWalkConfig(beta=1.0))
    assert res.converged
    assert np.all(res.pole_mass == 0.0)
    expected = np.zeros(n * n)
    expected[q.pair_ids] = q.weights
    assert np.abs(res.pref_mass - expected).max() <= 1e-15
    scored = score_items(res)
    assert np.all(scored.scores == 0.0) and not scored.defined.any()


def restart_poles(q):
    """A restart's mass per item pole, as the first walk reports it."""
    return np.concatenate([np.bincount(q.winners, q.weights, minlength=q.n_items),
                           np.bincount(q.losers, q.weights, minlength=q.n_items)])


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0, exclude_max=True))
def test_item_scores_match_walk_state(seed, beta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    q = random_restart(rng, n)
    cfg = ItemWalkConfig(beta=beta)
    got = item_scores(restart_poles(q), cfg)
    full = score_items(solve_item_walk(q, cfg))
    assert got.defined.all() and full.defined.all()
    assert np.abs(got.scores - full.scores).max() <= 1e-15
    assert np.all((got.scores >= 0.0) & (got.scores <= 1.0))
    k = int(rng.integers(0, n + 1))
    assert np.array_equal(recommend_topk(got, k), recommend_topk(full, k))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_item_scores_beta_one(seed):
    # the formula's limit at beta = 1 is qw / (qw + ql), but the walk
    # then leaves every pole empty: all scores 0, none defined
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    q = random_restart(rng, n)
    cfg = ItemWalkConfig(beta=1.0)
    got = item_scores(restart_poles(q), cfg)
    full = score_items(solve_item_walk(q, cfg))
    for scored in (got, full):
        assert np.all(scored.scores == 0.0) and not scored.defined.any()


def test_item_scores_two_items():
    # item 1 only ever loses: its win pole holds exactly no mass, and the
    # formula's rounding must not push its score below 0 (or item 0's above 1)
    q = make_restart(2, [(0, 1)])
    for beta in np.linspace(0.05, 0.9999, 2000):
        got = item_scores(restart_poles(q), ItemWalkConfig(beta=beta))
        assert np.all((got.scores >= 0.0) & (got.scores <= 1.0)) and got.defined.all()
        assert np.abs(got.scores - [1.0, 0.0]).max() <= 1e-15


def test_item_scores_reject_empty_poles():
    with pytest.raises(ValueError):
        item_scores(np.zeros(6))
