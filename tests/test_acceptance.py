"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion N (...): PASS|FAIL` line before its
assertions, so a plain run with `-s` (or the captured output of a
failure) always shows the verdict per criterion.  Criteria that need
the MovieLens-100K file skip with a visible SKIP line when it is not on
disk; everything else runs on synthetic data only.

Known red: the convergence-budget criterion asks both walks to reach a
joint L1 change below 1e-10 within 30 sweeps.  With restart probability
0.15 the joint update is a contraction of factor (1 - 0.15) at best,
and the block-uniform start puts the iterate's block masses a constant
distance from the stationary split, so the residual cannot drop below
roughly 0.15 * 0.85**t regardless of the graph.  Reaching 1e-10 takes
about 132 sweeps on every instance.  The test states the criterion
faithfully and fails; it is not loosened here.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from helpers import first_warm_user, ml100k_file, random_ratings, random_store

from prefwalk import (
    SplitSpec,
    UserPrefGraph,
    WalkConfig,
    build_restart,
    collect_diagnostics,
    connectivity_report,
    derive_preferences,
    item_pole_operators,
    load_ratings,
    ndcg_at_k,
    rank_items_for_user,
    recommend_topk,
    restart_vector,
    run_evaluation,
    run_item_walk,
    run_user_walk,
    score_items,
    solve_item_walk,
    solve_user_walk,
    upl_split,
    user_pref_operators,
)
from prefwalk.reference import dense_pole_matrices, dense_reference_ranking


def _line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"criterion {num} ({name}): {verdict}{tail}", flush=True)
    return ok


def _ml100k_or_skip(num: int, name: str):
    path = ml100k_file()
    if path is None:
        print(f"criterion {num} ({name}): SKIP — MovieLens-100K file not on disk",
              flush=True)
        pytest.skip("set PREFWALK_ML100K or place data/ml-100k/u.data")
    return load_ratings(path)


def _ml100k_train_graph(dataset):
    train, _, kept = upl_split(dataset, SplitSpec(30, min_test=10, seed=0), rep=0)
    return train, kept, UserPrefGraph.from_store(derive_preferences(train))


# -- criterion 1: sparse pipeline == dense reference -------------------------

def _worst_gap(pairs) -> float:
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def test_criterion_1_oracle_equivalence():
    """Both pipelines against the dense reference: the exact one against
    the reference run to convergence, the iterate against the reference
    run for the same default sweeps."""
    started = time.perf_counter()
    worst_exact = worst_iter = 0.0
    rankings_equal = True
    for i in range(50):
        seed = 1000 + i
        while True:
            rng = np.random.default_rng(seed)
            store = random_store(rng, n_users=int(rng.integers(2, 11)),
                                 n_items=int(rng.integers(3, 11)), fill=0.5)
            if store.total > 0:
                break
            seed += 7919
        target = first_warm_user(store)
        n = store.n_items

        ops = user_pref_operators(UserPrefGraph.from_store(store))
        w_op, t_op = item_pole_operators(n)
        got = rank_items_for_user(ops, w_op, t_op, target, k=n)
        first = solve_user_walk(ops, target)
        second = solve_item_walk(build_restart(first.concordances, ops.observed_ids, n))
        ref = dense_reference_ranking(store, target, k=n, tol=1e-15, max_iter=5000)
        worst_exact = max(worst_exact, _worst_gap(
            ((got.scored.scores, ref.scores),
             (first.similarities, ref.similarities),
             (first.concordances, ref.concordances),
             (second.pref_mass, ref.pref_mass),
             (second.pole_mass, ref.pole_mass))))
        rankings_equal = rankings_equal and np.array_equal(got.items, ref.items)

        first = run_user_walk(ops.pref_to_user, ops.user_to_pref,
                              restart_vector(ops, target))
        q = build_restart(first.concordances, ops.observed_ids, n)
        second = run_item_walk(w_op, t_op, q)
        items = recommend_topk(score_items(second), n)
        ref = dense_reference_ranking(store, target, k=n)
        worst_iter = max(worst_iter, _worst_gap(
            ((first.similarities, ref.similarities),
             (first.concordances, ref.concordances),
             (second.pref_mass, ref.pref_mass),
             (second.pole_mass, ref.pole_mass))))
        rankings_equal = rankings_equal and np.array_equal(items, ref.items)
    elapsed = time.perf_counter() - started

    ok = (worst_exact <= 1e-12 and worst_iter <= 1e-9 and rankings_equal
          and elapsed < 10.0)
    _line(1, "oracle equivalence", ok,
          f"50 instances, max |exact - converged dense| = {worst_exact:.2e}, "
          f"max |iterate - dense| = {worst_iter:.2e}, "
          f"rankings identical = {rankings_equal}, {elapsed:.2f} s")
    assert worst_exact <= 1e-12
    assert worst_iter <= 1e-9
    assert rankings_equal
    assert elapsed < 10.0


# -- criterion 2: column stochasticity ----------------------------------------

def _column_sums(operator) -> np.ndarray:
    return np.asarray(operator.matrix.sum(axis=0)).ravel()


def _assert_user_pref_columns(ops):
    l_sums = _column_sums(ops.pref_to_user)
    assert np.max(np.abs(l_sums - 1.0)) <= 1e-12  # every observed pref has a holder
    m_sums = _column_sums(ops.user_to_pref)
    warm = ops.user_degrees > 0
    assert np.max(np.abs(m_sums[warm] - 1.0)) <= 1e-12
    assert not np.any(m_sums[~warm])


def test_criterion_2_stochasticity_synthetic():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        store = random_store(rng, n_users=int(rng.integers(2, 9)),
                             n_items=int(rng.integers(3, 9)), fill=0.5)
        if store.total == 0:
            continue
        ops = user_pref_operators(UserPrefGraph.from_store(store))
        _assert_user_pref_columns(ops)
        worst = max(worst, float(np.max(np.abs(_column_sums(ops.pref_to_user) - 1.0))))

        # the pole transitions W and T that criterion 1's walk 2 is checked
        # against; they depend on n_items only
        w_dense, t_dense = dense_pole_matrices(store.n_items)
        for dense in (w_dense, t_dense):
            worst = max(worst, float(np.max(np.abs(dense.sum(axis=0) - 1.0))))

    ok = worst <= 1e-12
    _line(2, "column stochasticity, synthetic", ok,
          f"20 graphs, worst non-empty column deviation = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_2_stochasticity_ml100k():
    dataset = _ml100k_or_skip(2, "column stochasticity, ml-100k")
    _, _, graph = _ml100k_train_graph(dataset)
    ops = user_pref_operators(graph)
    _assert_user_pref_columns(ops)
    worst = float(np.max(np.abs(_column_sums(ops.pref_to_user) - 1.0)))

    ok = worst <= 1e-12
    _line(2, "column stochasticity, ml-100k", ok,
          f"worst column deviation = {worst:.2e}")
    assert worst <= 1e-12


# -- criterion 3: convergence budget (known red, see module docstring) --------

def _convergence_fractions(ops, w_op, t_op, users, budget=30, max_iter=200):
    cfg = WalkConfig(tol=1e-10, max_iter=max_iter)
    iters1, iters2, within = [], [], 0
    for u in users:
        d = restart_vector(ops, int(u))
        first = run_user_walk(ops.pref_to_user, ops.user_to_pref, d, cfg)
        q = build_restart(first.concordances, ops.observed_ids, ops.n_items)
        second = run_item_walk(w_op, t_op, q, cfg)
        iters1.append(first.iterations)
        iters2.append(second.iterations)
        if (first.converged and first.iterations <= budget
                and second.converged and second.iterations <= budget):
            within += 1
    return within / len(users), iters1, iters2


def test_criterion_3_convergence_budget_synthetic_proxy():
    rng = np.random.default_rng(3)
    dataset = random_ratings(rng, n_users=120, n_items=60,
                             min_per_user=42, max_per_user=42, raw_offset=0)
    train, _, kept = upl_split(dataset, SplitSpec(30, min_test=10, seed=0), rep=0)
    store = derive_preferences(train)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    w_op, t_op = item_pole_operators(dataset.n_items)
    warm = [int(u) for u in kept if store.count(int(u)) > 0][:100]
    assert len(warm) >= 100

    fraction, iters1, iters2 = _convergence_fractions(ops, w_op, t_op, warm)
    ok = fraction >= 0.95
    _line(3, "convergence budget, synthetic proxy", ok,
          f"{fraction:.0%} of {len(warm)} users within 30 sweeps at tol 1e-10 "
          f"(median sweeps: first walk {np.median(iters1):.0f}, "
          f"second walk {np.median(iters2):.0f})")
    assert fraction >= 0.95, (
        f"only {fraction:.0%} of users converged within 30 sweeps; the restart "
        f"rate 0.15 caps the per-sweep contraction at 0.85, so a 1e-10 budget "
        f"needs ~132 sweeps from a uniform start on any graph"
    )


def test_criterion_3_convergence_budget_ml100k():
    dataset = _ml100k_or_skip(3, "convergence budget, ml-100k")
    train, kept, graph = _ml100k_train_graph(dataset)
    store = graph.to_store()
    ops = user_pref_operators(graph)
    w_op, t_op = item_pole_operators(dataset.n_items)
    warm = [int(u) for u in kept if store.count(int(u)) > 0][:100]
    assert len(warm) >= 100

    fraction, iters1, iters2 = _convergence_fractions(ops, w_op, t_op, warm)
    ok = fraction >= 0.95
    _line(3, "convergence budget, ml-100k", ok,
          f"{fraction:.0%} of {len(warm)} users within 30 sweeps at tol 1e-10 "
          f"(median sweeps: first walk {np.median(iters1):.0f}, "
          f"second walk {np.median(iters2):.0f})")
    assert fraction >= 0.95


# -- criterion 4: published-number reproduction --------------------------------

def test_criterion_4_ndcg_reproduction_ml100k():
    dataset = _ml100k_or_skip(4, "ndcg reproduction, ml-100k")
    report = run_evaluation(dataset, upls=[30], cutoffs=(1, 10), repetitions=5,
                            seed=0, min_test=10, jobs=os.cpu_count() or 1)
    at10 = report.cells[(30, 10)].mean
    at1 = report.cells[(30, 1)].mean
    ok = abs(at10 - 0.712) <= 0.03 and abs(at1 - 0.721) <= 0.03
    _line(4, "ndcg reproduction, ml-100k", ok,
          f"NDCG@10 = {at10:.4f} (target 0.712 ± 0.03), "
          f"NDCG@1 = {at1:.4f} (target 0.721 ± 0.03)")
    assert abs(at10 - 0.712) <= 0.03
    assert abs(at1 - 0.721) <= 0.03


# -- criterion 5: discrimination diagnostics ----------------------------------

def test_criterion_5_discrimination_ml100k():
    dataset = _ml100k_or_skip(5, "discrimination, ml-100k")
    _, _, graph = _ml100k_train_graph(dataset)
    report = collect_diagnostics(graph, sample=100, seed=0)
    fractions = [u.pref_mass_fraction for u in report.users]
    full = all(f == 1.0 for f in fractions)
    level_gap = (report.mean_of("pref_mass_levels")
                 / max(report.mean_of("concordance_levels"), 1.0))
    ok = full and level_gap >= 10.0
    _line(5, "discrimination, ml-100k", ok,
          f"second-walk coverage 1.0 for {sum(f == 1.0 for f in fractions)}"
          f"/{len(fractions)} sampled users, level ratio {level_gap:.1f}x")
    assert full
    assert level_gap >= 10.0


# -- criterion 6: similarity coverage ------------------------------------------

def test_criterion_6_similarity_coverage_ml100k():
    dataset = _ml100k_or_skip(6, "similarity coverage, ml-100k")
    _, _, graph = _ml100k_train_graph(dataset)
    conn = connectivity_report(graph)
    report = collect_diagnostics(graph, sample=100, seed=0)
    fractions = [u.similarity_fraction for u in report.users]
    if conn.connected:
        ok = all(f == 1.0 for f in fractions)
        _line(6, "similarity coverage, ml-100k", ok,
              f"graph connected; coverage 1.0 for "
              f"{sum(f == 1.0 for f in fractions)}/{len(fractions)} sampled users")
        assert ok
    else:
        # the coverage requirement is conditioned on connectivity; report it
        _line(6, "similarity coverage, ml-100k", True,
              f"graph not connected ({conn.n_components} components, "
              f"{conn.n_isolated_users} isolated users); coverage claim vacuous, "
              f"mean coverage {np.mean(fractions):.4f}")


# -- criterion 7: property suite, synthetic only --------------------------------

def _check_mass_conservation() -> bool:
    for i in range(5):
        rng = np.random.default_rng(7000 + i)
        store = random_store(rng, n_users=6, n_items=6, fill=0.6)
        if store.total == 0:
            continue
        ops = user_pref_operators(UserPrefGraph.from_store(store))
        target = first_warm_user(store)
        first = run_user_walk(ops.pref_to_user, ops.user_to_pref,
                              restart_vector(ops, target))
        if abs(first.similarities.sum() + first.concordances.sum() - 1.0) > 1e-12:
            return False
        w_op, t_op = item_pole_operators(store.n_items)
        q = build_restart(first.concordances, ops.observed_ids, store.n_items)
        second = run_item_walk(w_op, t_op, q)
        joint = second.pole_mass.sum() + second.pref_mass.sum()
        if abs(joint - 1.0) > 1e-9 or np.any(second.pref_mass < 0):
            return False
    return True


def _check_fixed_point() -> bool:
    rng = np.random.default_rng(7100)
    store = random_store(rng, n_users=5, n_items=6, fill=0.6)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    target = first_warm_user(store)
    cfg = WalkConfig(tol=1e-10, max_iter=400)
    first = run_user_walk(ops.pref_to_user, ops.user_to_pref,
                          restart_vector(ops, target), cfg)
    if not (first.converged and first.residual < cfg.tol):
        return False
    w_op, t_op = item_pole_operators(store.n_items)
    q = build_restart(first.concordances, ops.observed_ids, store.n_items)
    second = run_item_walk(w_op, t_op, q, cfg)
    return second.converged and second.residual < cfg.tol


def _check_determinism() -> bool:
    rng = np.random.default_rng(7200)
    store = random_store(rng, n_users=6, n_items=7, fill=0.5)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    w_op, t_op = item_pole_operators(store.n_items)
    target = first_warm_user(store)
    a = rank_items_for_user(ops, w_op, t_op, target, k=7)
    b = rank_items_for_user(ops, w_op, t_op, target, k=7)
    if not (np.array_equal(a.items, b.items)
            and np.array_equal(a.scored.scores, b.scored.scores)):
        return False

    dataset = random_ratings(np.random.default_rng(7201), n_users=8, n_items=10,
                             min_per_user=8, max_per_user=9, raw_offset=0)
    kwargs = dict(upls=[4], cutoffs=(1, 3), repetitions=2, seed=0, min_test=3)
    serial = run_evaluation(dataset, **kwargs, jobs=1)
    forked = run_evaluation(dataset, **kwargs, jobs=2)
    return all(serial.cells[key].per_rep == forked.cells[key].per_rep
               for key in serial.cells)


def _check_antisymmetry() -> bool:
    rng = np.random.default_rng(7300)
    dataset = random_ratings(rng, n_users=10, n_items=8, min_per_user=3)
    store = derive_preferences(dataset)
    n = dataset.n_items
    for u in range(dataset.n_users):
        ids = set(int(p) for p in store.prefs_of(u))
        if any((p % n) * n + (p // n) in ids for p in ids):
            return False
        items, ratings = dataset.user_rows(u)
        brute = sum(1 for a, b in itertools.combinations(range(items.size), 2)
                    if ratings[a] != ratings[b])
        if brute != store.count(u):
            return False
    return True


def _check_ndcg_ideal_prefix() -> bool:
    gains = {0: 5.0, 1: 4.0, 2: 3.0, 3: 2.0}
    for perm in itertools.permutations([0, 1, 2, 3, 9], 3):
        value = ndcg_at_k(np.array(perm), gains, k=3)
        if perm == (0, 1, 2):
            if value != 1.0:
                return False
        elif not value < 1.0:
            return False
    return True


def _check_adjacent_swap_monotone() -> bool:
    gains = {i: float(6 - i) for i in range(5)}
    rng = np.random.default_rng(7400)
    for _ in range(10):
        order = list(rng.permutation(7))  # items 5, 6 carry zero gain
        value = ndcg_at_k(np.array(order), gains, k=7)
        swapped = True
        while swapped:
            swapped = False
            for j in range(len(order) - 1):
                lo = gains.get(order[j], 0.0)
                hi = gains.get(order[j + 1], 0.0)
                if lo < hi:  # moving the better item forward
                    order[j], order[j + 1] = order[j + 1], order[j]
                    nxt = ndcg_at_k(np.array(order), gains, k=7)
                    if nxt < value - 1e-12:
                        return False
                    value = nxt
                    swapped = True
        if not math.isclose(value, 1.0, rel_tol=0, abs_tol=1e-12):
            return False
    return True


def test_criterion_7_property_suite():
    checks = [
        ("mass conservation", _check_mass_conservation()),
        ("fixed-point residual", _check_fixed_point()),
        ("determinism and pool invariance", _check_determinism()),
        ("preference antisymmetry", _check_antisymmetry()),
        ("ndcg 1 iff ideal prefix", _check_ndcg_ideal_prefix()),
        ("adjacent-swap monotonicity", _check_adjacent_swap_monotone()),
    ]
    failing = [name for name, ok in checks if not ok]
    _line(7, "property suite", not failing,
          "all synthetic properties hold" if not failing
          else "failing: " + ", ".join(failing))
    assert not failing, f"failing properties: {failing}"
