import dataclasses
import itertools
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from helpers import (assert_same_ranking, factor_kind, first_warm_user, random_ratings,
                     random_store)

from prefwalk import (ColdStartError, NumericalError, PreferenceStore, RankedBlock,
                      RankOutcome, SplitSpec, UserPrefGraph, UserWalkBlock, WalkConfig,
                      collect_diagnostics, connectivity_report, decode_pair,
                      derive_preferences, distinct_levels, item_pole_operators, loads_ratings,
                      ndcg_at_k, ndcg_rows, rank_block, rank_items_for_user, run_evaluation,
                      upl_split, user_pref_operators)
from prefwalk import evaluation, graph as graph_module, preferences
from prefwalk.item_walk import exclusion_mask, item_scores, recommend_topk
from prefwalk.reference import dense_reference_ranking, stacked_system
from prefwalk.user_walk import restart_vector, solve_user_walk, solve_user_walks
from prefwalk.walk_state import build_restart, score_items, solve_item_walk


def test_ndcg_reorder_example():
    # two test items rated 3 and 2, recommended in the wrong order
    value = ndcg_at_k([1, 0], {0: 3.0, 1: 2.0}, k=2)
    expected = (3 + 7 / math.log2(3)) / (7 + 3 / math.log2(3))
    assert abs(value - expected) <= 1e-12
    assert abs(value - 0.8339912323981488) <= 1e-12


def test_ndcg_ideal_order_is_one():
    assert ndcg_at_k([0, 1], {0: 3.0, 1: 2.0}, k=2) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_all_ties_any_order():
    gains = {i: 4.0 for i in range(5)}
    assert ndcg_at_k([4, 2, 0], gains, k=3) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_empty_and_miss():
    assert ndcg_at_k([], {0: 5.0}, k=3) == 0.0
    assert ndcg_at_k([9, 8], {0: 5.0}, k=2) == 0.0
    assert ndcg_at_k([0], {}, k=1) == 0.0


def test_ndcg_rel_zero_items_do_not_score():
    # an unrated item in the list wastes a slot but adds no gain
    with_gap = ndcg_at_k([9, 0], {0: 3.0}, k=2)
    assert with_gap == pytest.approx(1 / math.log2(3), abs=1e-12)


def _is_ideal_prefix(recommended, gains, k):
    ideal = sorted(gains.values(), reverse=True)[:k]
    got = [gains.get(int(i), 0.0) for i in recommended[:k]]
    return got == ideal


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_ndcg_is_one_iff_ideal_prefix(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    gains = {i: float(rng.integers(1, 6)) for i in range(n)}
    order = list(rng.permutation(n))
    k = int(rng.integers(1, n + 1))
    value = ndcg_at_k(order, gains, k)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert (abs(value - 1.0) <= 1e-12) == _is_ideal_prefix(order, gains, k)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_ndcg_adjacent_swap_toward_ideal(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    gains = {i: float(rng.integers(1, 6)) for i in range(n)}
    order = list(rng.permutation(n))
    k = int(rng.integers(2, n + 1))
    pos = int(rng.integers(0, k - 1))
    if gains[order[pos]] < gains[order[pos + 1]]:
        swapped = order.copy()
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        assert ndcg_at_k(swapped, gains, k) >= ndcg_at_k(order, gains, k) - 1e-15


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_ndcg_rows_matches_ndcg_at_k(seed):
    # some users have no test item, some fewer than the deepest cutoff,
    # some rankings are shorter than a cutoff
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 15))
    cutoffs = sorted(set(rng.integers(1, n + 4, size=3).tolist()))
    width = min(max(cutoffs), n)
    items = np.array([rng.permutation(n)[:width] for _ in range(m)]).reshape(m, width)
    counts = rng.integers(0, width + 1, size=m)
    ratings = rng.integers(1, 6, size=(m, n)) * (rng.random((m, n)) < rng.random((m, 1)))
    got = ndcg_rows(items, counts, sparse.csr_matrix(ratings.astype(float)), cutoffs)
    for r in range(m):
        gains = {int(i): float(v) for i, v in enumerate(ratings[r]) if v}
        want = [ndcg_at_k(items[r, :counts[r]], gains, k) for k in cutoffs]
        assert np.abs(got[r] - want).max() <= 1e-12


def _full_walks(ops, target, config=None):
    """Both walks' full exact state for one user, as diagnostics take it."""
    first = solve_user_walk(ops, target, config)
    q = build_restart(first.concordances, ops.observed_ids, ops.n_items)
    return first, solve_item_walk(q, config)


def test_rank_items_matches_manual_pipeline():
    store = random_store(np.random.default_rng(12), n_users=5, n_items=6)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    w_op, t_op = item_pole_operators(store.n_items)
    target = first_warm_user(store)
    outcome = rank_items_for_user(ops, w_op, t_op, target, k=4, exclude={0})
    scored = item_scores(solve_user_walks(ops, [target]).concordance_poles[:, 0])
    assert np.array_equal(outcome.items, recommend_topk(scored, 4, exclude={0}))
    assert 0 not in set(int(i) for i in outcome.items)
    assert np.array_equal(outcome.scored.scores, scored.scores)
    assert np.array_equal(outcome.scored.defined, scored.defined)
    first, second = _full_walks(ops, target)
    assert first.iterations == 0 and second.iterations == 0


def test_ranking_returns_only_rankings():
    # walk state comes from the walk solvers, never from a ranking
    names = {cls: [f.name for f in dataclasses.fields(cls)]
             for cls in (RankOutcome, RankedBlock, UserWalkBlock)}
    assert names == {RankOutcome: ["items", "scored"],
                     RankedBlock: ["scored", "items", "counts"],
                     UserWalkBlock: ["similarities", "concordance_poles", "mass"]}
    assert not [name for name, value in vars(UserWalkBlock).items()
                if callable(value) and not name.startswith("__")]


def test_rankings_compare_by_identity():
    # array fields have no truth value, so rankings compare (and hash) as objects
    store = random_store(np.random.default_rng(12), n_users=5, n_items=6)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    poles, target = item_pole_operators(store.n_items), first_warm_user(store)
    outcome, again = (rank_items_for_user(ops, *poles, target) for _ in range(2))
    assert outcome == outcome and outcome != again
    assert outcome.scored == outcome.scored and outcome.scored != again.scored
    assert len({outcome, again, outcome.scored, again.scored}) == 4


def test_array_holders_compare_without_raising():
    # a ratings dataset compares by value, as a PreferenceStore does; the
    # other classes with array fields compare (and hash) as objects
    text = "1\t1\t5\n1\t2\t3\n2\t1\t4\n2\t3\t1\n"
    ds, same = loads_ratings(text), loads_ratings(text)
    assert ds == same and not ds != same and ds != "ratings"
    assert ds != loads_ratings(text.replace("\t3\n", "\t2\n", 1))
    assert ds != ds.subset(np.arange(ds.n_ratings) > 0)
    store = derive_preferences(ds)
    target = first_warm_user(store)
    ops, fresh = (user_pref_operators(UserPrefGraph.from_store(store)) for _ in range(2))
    first = solve_user_walk(ops, target)
    walk2 = [solve_item_walk(build_restart(first.concordances, ops.observed_ids,
                                           ops.n_items)) for _ in range(2)]
    system = [stacked_system(np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1) / 2,
                             np.ones(1) / 2, 0.5) for _ in range(2)]
    ranking = [dense_reference_ranking(store, target) for _ in range(2)]
    for one, other in ((ops, fresh), (ops.pref_to_user, fresh.pref_to_user),
                       (ops.user_space, fresh.user_space), walk2, system, ranking):
        assert one == one and one != other and not one == other
        assert len({one, other}) == 2


def test_rank_rejects_mismatched_pole_operators():
    store = random_store(np.random.default_rng(14), n_users=4, n_items=5)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    target = first_warm_user(store)
    (w5, t5), (w6, t6) = item_pole_operators(5), item_pole_operators(6)
    for pole_ops in ((w6, t6), (w5, t6), (w6, t5)):
        with pytest.raises(ValueError):
            rank_items_for_user(ops, *pole_ops, target)


def test_near_one_beta_unreached_items_score_one_half():
    # on many items the unreached items' pole mass falls below 1e-15 at
    # beta = 0.9999 (about 2.5e-16 each here), yet it is not zero
    n = 2000
    store = PreferenceStore.from_pairs(2, n, [[(0, 1)], [(2, 3)]])
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    cfg = WalkConfig(beta=0.9999)
    out = rank_items_for_user(ops, *item_pole_operators(n), 0, k=n, config=cfg)
    second = _full_walks(ops, 0, cfg)[1]
    full = score_items(second)
    pm = second.pole_mass
    assert (pm[:n] + pm[n:])[2:].max() < 1e-15
    for scored in (out.scored, full):
        assert scored.defined.all()
        assert np.all(scored.scores[2:] == 0.5)
    assert np.abs(out.scored.scores - full.scores).max() <= 1e-15
    assert list(out.items[:1]) == [0] and list(out.items[-1:]) == [1]


def _warm_instance(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_users=int(rng.integers(1, 9)),
                         n_items=int(rng.integers(2, 9)), fill=float(rng.uniform(0.2, 0.8)))
    if store.total == 0:
        store = PreferenceStore.from_pairs(1, 2, [[(0, 1)]])
    warm = [u for u in range(store.n_users) if store.count(u) > 0]
    return store, int(rng.choice(warm)), float(rng.uniform(0.05, 1.0)), float(
        rng.uniform(0.05, 1.0))


def _p_space_walks(ops, target, alpha, beta):
    """Both walks through vectors over the observed preferences: the
    restart, one solve against the same factor, the concordances, then
    the item walk's restart from them."""
    keep = 1.0 - alpha
    jump = alpha * restart_vector(ops, target)
    sim = ops.user_walk_factor(alpha).solve(keep * ops.pref_to_user.apply(jump))
    con = keep * ops.user_to_pref.apply(sim) + jump
    mass = sim.sum() + con.sum()
    q = build_restart(con / mass, ops.observed_ids, ops.n_items)
    return sim / mass, con / mass, solve_item_walk(q, WalkConfig(beta=beta))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_pole_marginals_match_lazy_concordances(seed):
    # the pole marginals ranking reads, against the concordances that
    # only solve_user_walk builds
    store, target, alpha, _ = _warm_instance(seed)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    n = store.n_items
    cfg = WalkConfig(alpha=alpha)
    con = solve_user_walk(ops, target, cfg).concordances
    winners, losers = decode_pair(ops.observed_ids, n)
    poles = solve_user_walks(ops, [target], cfg).concordance_poles[:, 0]
    assert np.abs(poles[:n] - np.bincount(winners, con, minlength=n)).max() <= 1e-15
    assert np.abs(poles[n:] - np.bincount(losers, con, minlength=n)).max() <= 1e-15
    q = build_restart(con, ops.observed_ids, n)
    assert np.array_equal(q.pair_ids, ops.observed_ids)
    assert np.abs(q.win_sums - np.bincount(q.winners, q.weights, minlength=n)).max() <= 1e-15
    assert np.abs(q.loss_sums - np.bincount(q.losers, q.weights, minlength=n)).max() <= 1e-15


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_user_space_residual_is_one_sweep_change(seed):
    store, target, alpha, _ = _warm_instance(seed)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    first = solve_user_walk(ops, target, WalkConfig(alpha=alpha))
    sim, con, keep = first.similarities, first.concordances, 1.0 - alpha
    sim_next = keep * ops.pref_to_user.apply(con)
    con_next = keep * ops.user_to_pref.apply(sim) + alpha * restart_vector(ops, target)
    moved = np.abs(sim_next - sim).sum() + np.abs(con_next - con).sum()
    assert abs(first.residual - moved) <= 1e-15
    assert first.converged
    assert type(first.residual) is float and type(first.converged) is bool  # JSON-ready


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_scores_match_p_space_pipeline(seed):
    store, target, alpha, beta = _warm_instance(seed)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    n = store.n_items
    w_op, t_op = item_pole_operators(n)
    cfg = WalkConfig(alpha=alpha, beta=beta)
    out = rank_items_for_user(ops, w_op, t_op, target, k=n, config=cfg)
    first, exact = _full_walks(ops, target, cfg)
    sim, con, second = _p_space_walks(ops, target, alpha, beta)
    scored = score_items(second)
    assert np.abs(first.similarities - sim).max() <= 1e-14
    assert np.abs(first.concordances - con).max() <= 1e-14
    assert np.abs(out.scored.scores - scored.scores).max() <= 1e-14
    # the two paths may differ by an ulp, so ties within 1e-14 may break either way
    assert np.array_equal(np.sort(out.items), np.arange(n))
    assert np.all(np.diff(scored.scores[out.items]) <= 1e-14)
    assert np.abs(exact.pref_mass - second.pref_mass).max() <= 1e-14


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_rank_alpha_one_and_beta_one(seed):
    store, target, _, _ = _warm_instance(seed)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    poles = item_pole_operators(store.n_items)
    cfg = WalkConfig(alpha=1.0)
    first, second = _full_walks(ops, target, cfg)
    assert np.all(first.similarities == 0.0)
    assert np.abs(first.concordances - restart_vector(ops, target)).max() <= 1e-15
    assert first.converged
    # so ranking scores the target's own preferences alone
    out = rank_items_for_user(ops, *poles, target, config=cfg)
    assert np.abs(out.scored.scores - score_items(second).scores).max() <= 1e-15
    out = rank_items_for_user(ops, *poles, target, config=WalkConfig(beta=1.0))
    assert np.all(out.scored.scores == 0.0) and not out.scored.defined.any()


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_rank_block_matches_one_user_calls(seed):
    # a block of every warm user, cold users between them, at times more
    # users than run_evaluation puts in one block; k from 0 past n_items,
    # some users allowed fewer items than k, and beta = 1 at times
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    store = random_store(rng, n_users=int(rng.integers(1, 2 * evaluation.EVAL_BLOCK + 8)),
                         n_items=n, fill=float(rng.uniform(0.1, 0.6)))
    warm = [u for u in range(store.n_users) if store.count(u) > 0]
    if not warm:
        return
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    cfg = WalkConfig(alpha=float(rng.uniform(0.05, 1.0)),
                     beta=1.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0)))
    k = int(rng.integers(0, n + 3))
    excluded = rng.random((len(warm), n)) < rng.uniform(0.0, 0.8)
    block = rank_block(ops, warm, k, excluded, cfg)
    poles = item_pole_operators(n)
    for j, u in enumerate(warm):
        one = rank_items_for_user(ops, *poles, u, k, np.flatnonzero(excluded[j]), cfg)
        assert np.array_equal(block.items[j, :block.counts[j]], one.items)
        assert np.abs(block.scored.scores[:, j] - one.scored.scores).max() <= 1e-15
        assert np.array_equal(block.scored.defined[:, j], one.scored.defined)
    cold = [u for u in range(store.n_users) if store.count(u) == 0]
    if cold:
        with pytest.raises(ColdStartError):
            rank_block(ops, warm[:1] + cold[:1], k, np.zeros((2, n), dtype=bool), cfg)


def test_same_ranking_allows_only_ties():
    tol = 1e-12
    # items 1, 2 and 4 tie, exactly or within tol; item 5 is 1e-9 off them
    scores = np.array([0.9, 0.5, 0.5, 0.3, 0.5 + 1e-13, 0.5 - 1e-9])
    same = assert_same_ranking
    assert same([0, 1, 2, 4], [0, 1, 2, 4], scores, scores, tol) == 0
    assert same([0, 1, 2, 4], [0, 4, 1, 2], scores, scores + 5e-13, tol) == 3
    assert same([0, 1, 2], [0, 2, 4], scores, scores, tol) == 2  # a tie across the cut
    assert same([5, 3], [5, 3], scores, scores, tol) == 0
    refused = [
        ([0, 1, 2, 4], [0, 1, 2, 4], scores, scores + 2e-12),  # scores apart
        ([0, 1, 5], [0, 5, 1], scores, scores),                # a near-tie beyond tol
        ([0, 1, 2], [0, 1, 5], scores, scores),                # so also across the cut
        ([0, 3], [3, 0], scores, scores),                      # no tie at all
        ([0, 1, 2], [0, 1], scores, scores),                   # lengths differ
        ([1, 0], [1, 0], scores, scores),                      # out of order
        ([0, 1, 1], [0, 1, 2], scores, scores),                # an item twice
    ]
    for items_a, items_b, scores_a, scores_b in refused:
        with pytest.raises(AssertionError):
            same(items_a, items_b, scores_a, scores_b, tol)


def test_ranking_builds_no_preference_sized_vector():
    ds = random_ratings(np.random.default_rng(5), n_users=4, n_items=400,
                        min_per_user=400, raw_offset=0)
    ops = user_pref_operators(UserPrefGraph.from_store(derive_preferences(ds)))
    n_prefs = ops.observed_ids.size
    assert n_prefs > 100 * (ops.n_users + ops.n_items)
    poles = item_pole_operators(ds.n_items)
    rank_items_for_user(ops, *poles, 0)  # builds the factor and the user-space matrices

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the probe sees a vector over preferences where one is built
    assert peak_bytes(lambda: restart_vector(ops, 1)) >= n_prefs * 8
    rated = ds.user_rows(1)[0]
    assert peak_bytes(lambda: rank_items_for_user(ops, *poles, 1, exclude=rated)) < n_prefs * 8 / 4


class _Untouchable:
    """Stands in for an operator that ranking must not read."""

    def _refuse(self, *args):
        raise AssertionError("ranking read an operator outside user space")

    __getattr__ = __matmul__ = __rmatmul__ = __array__ = _refuse


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_ranking_touches_only_user_space(kind):
    # once the factor is built, ranking needs neither L nor M nor the
    # coupling L @ M: it solves with the factor and projects with the
    # other user-space matrices
    ds = random_ratings(np.random.default_rng(8), n_users=12, n_items=9, min_per_user=4)
    ops = user_pref_operators(UserPrefGraph.from_store(derive_preferences(ds)))
    warm = np.flatnonzero(ops.user_degrees > 0)
    rated = [ds.user_rows(int(u))[0] for u in warm]
    poles = item_pole_operators(ds.n_items)

    def rankings():
        block = rank_block(ops, warm, 5, exclusion_mask(ds.n_items, rated))
        one = rank_items_for_user(ops, *poles, int(warm[-1]), k=5, exclude=rated[-1])
        return block.items, block.counts, block.scored.scores, one.items, one.scored.scores

    with factor_kind(kind):
        ops.user_walk_factor(WalkConfig().alpha)
    want = rankings()
    ops.pref_to_user = ops.user_to_pref = ops.user_space.coupling = _Untouchable()
    for got, expected in zip(rankings(), want):
        assert got.tobytes() == expected.tobytes()


def test_rank_cold_and_out_of_range_targets():
    store = PreferenceStore.from_pairs(3, 3, [[(0, 1)], [], [(1, 2)]])
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    poles = item_pole_operators(3)
    with pytest.raises(ColdStartError):
        rank_items_for_user(ops, *poles, 1)
    for target in (-1, 3):
        with pytest.raises(ValueError):
            rank_items_for_user(ops, *poles, target)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_user_sharing_no_preference_scores_one_half(seed):
    # the target's component of the graph is the target alone, so the
    # walks carry no information about items outside its own pairs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    others = random_store(rng, n_users=int(rng.integers(0, 5)), n_items=n, fill=0.5)
    picked = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
    mine = [(int(a), int(b)) for a, b in zip(picked[:-1], picked[1:])]
    rows = [[tuple(int(v) for v in divmod(int(p), n)) for p in ids
             if tuple(int(v) for v in divmod(int(p), n)) not in mine]
            for ids in map(others.prefs_of, range(others.n_users))]
    store = PreferenceStore.from_pairs(len(rows) + 1, n, rows + [mine])
    target = len(rows)
    ops = user_pref_operators(UserPrefGraph.from_store(store))
    outcome = rank_items_for_user(ops, *item_pole_operators(n), target, k=n)
    assert np.all(np.delete(solve_user_walk(ops, target).similarities, target) == 0.0)
    unseen = np.setdiff1d(np.arange(n), picked)
    assert np.all(outcome.scored.scores[unseen] == 0.5)


def _protocol_dataset(n_users=6, per_user=12, n_items=20, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            lines.append(f"{u}\t{i}\t{rng.integers(1, 6)}")
    return loads_ratings("\n".join(lines))


def test_run_evaluation_shape_and_determinism():
    ds = _protocol_dataset()
    kwargs = dict(upls=[4], cutoffs=[1, 3], repetitions=2, seed=7, min_test=5)
    r1 = run_evaluation(ds, **kwargs)
    r2 = run_evaluation(ds, **kwargs)
    assert set(r1.cells) == {(4, 1), (4, 3)}
    for key, cell in r1.cells.items():
        assert 0.0 <= cell.mean <= 1.0 and cell.std >= 0.0
        assert cell.per_rep == r2.cells[key].per_rep
    assert r1.evaluated_users == r2.evaluated_users
    tsv = r1.to_tsv()
    assert "upl\tcutoff\tmean\tstd\tn_users\truntime_ms" in tsv
    assert "# seed=7" in tsv


def _block_dataset(seed=3):
    """2 * EVAL_BLOCK + 5 users who rate 12 of 30 items each, upl=4
    leaving more than two blocks of warm users.  Every 23rd user rates
    all items 3, so derives no preference and is cold, between warm ones."""
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(2 * evaluation.EVAL_BLOCK + 5):
        for i in rng.choice(30, size=12, replace=False):
            lines.append(f"{u}\t{i}\t{3 if u % 23 == 0 else rng.integers(1, 6)}")
    return loads_ratings("\n".join(lines))


def test_run_evaluation_jobs_invariant():
    # three blocks per repetition, cold users among them
    ds = _block_dataset()
    kwargs = dict(upls=[4], cutoffs=[1, 5], repetitions=2, seed=1, min_test=5)
    serial = run_evaluation(ds, jobs=1, **kwargs)
    assert min(serial.evaluated_users.values()) > 2 * evaluation.EVAL_BLOCK
    assert min(serial.cold_skipped.values()) > 0
    for jobs in (2, 3):
        threaded = run_evaluation(ds, jobs=jobs, **kwargs)
        for key in serial.cells:
            assert serial.cells[key].per_rep == threaded.cells[key].per_rep
        assert serial.evaluated_users == threaded.evaluated_users
        assert serial.cold_skipped == threaded.cold_skipped


def test_rank_block_on_threads_matches_serial():
    # users rate 20 to 30 of 40 items, so nearly every pair of users
    # shares a preference: the coupling is dense, so by rule its factor
    # is a dense LU, and a sparse one, built on request, fills in.  For
    # each kind, every thread's solve does real work on the one shared
    # factor.  More threads than cores, and a short switch interval, so
    # the threads interleave as much as they can.
    rng = np.random.default_rng(21)
    n_users, n_items = 10 * evaluation.EVAL_BLOCK, 40
    ds = random_ratings(rng, n_users=n_users, n_items=n_items, min_per_user=20,
                        max_per_user=30)
    store = derive_preferences(ds)
    dense = user_pref_operators(UserPrefGraph.from_store(store))
    assert dense.user_space.coupling.nnz > 0.9 * n_users ** 2
    assert type(dense.user_walk_factor(WalkConfig().alpha)) is graph_module.DenseLU
    sparse_ops = user_pref_operators(UserPrefGraph.from_store(store))
    with factor_kind("sparse"):
        lu = sparse_ops.user_walk_factor(WalkConfig().alpha)
    assert lu.L.nnz + lu.U.nnz > n_users ** 2 / 2
    warm = np.flatnonzero(dense.user_degrees > 0)
    starts = range(0, warm.size, evaluation.EVAL_BLOCK)
    assert len(starts) == 10

    def rank(ops, lo):
        users = warm[lo:lo + evaluation.EVAL_BLOCK]
        rated = [ds.user_rows(int(u))[0] for u in users]
        return (rank_block(ops, users, 10, exclusion_mask(n_items, rated)),
                solve_user_walks(ops, users).similarities)

    for ops in (dense, sparse_ops):
        serial = [rank(ops, lo) for lo in starts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    threaded = pool.map(rank, itertools.repeat(ops), starts, timeout=60)
                    for (one, sims), (other, other_sims) in zip(serial, threaded):
                        assert np.array_equal(one.items, other.items)
                        assert np.array_equal(one.counts, other.counts)
                        assert one.scored.scores.tobytes() == other.scored.scores.tobytes()
                        assert sims.tobytes() == other_sims.tobytes()
        finally:
            sys.setswitchinterval(interval)


def test_run_evaluation_factors_once_per_repetition(monkeypatch):
    # the factor (and `user_space` with it) is built before the blocks
    # go to the threads, on the calling thread, never by two threads,
    # whichever kind it is
    calls = []

    def spy(builder):
        def build(*args, **kwargs):
            calls.append((builder.__name__, threading.current_thread()))
            return builder(*args, **kwargs)
        return build

    for name in ("splu", "DenseLU"):
        monkeypatch.setattr(graph_module, name, spy(getattr(graph_module, name)))
    for kind, builder in (("dense", "DenseLU"), ("sparse", "splu")):
        calls.clear()
        with factor_kind(kind):
            report = run_evaluation(_block_dataset(), upls=[4], cutoffs=[1], repetitions=2,
                                    seed=1, min_test=5, jobs=2)
        assert min(report.evaluated_users.values()) > 2 * evaluation.EVAL_BLOCK
        assert calls == [(builder, threading.current_thread())] * 2


def test_run_evaluation_block_error_stops_cleanly(monkeypatch):
    error = NumericalError("second block failed")
    calls = itertools.count()
    real = evaluation.rank_block

    def failing(*args, **kwargs):
        if next(calls) == 1:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "rank_block", failing)
    threads = threading.active_count()
    with pytest.raises(NumericalError) as exc:
        run_evaluation(_block_dataset(), upls=[4], cutoffs=[1], repetitions=1, seed=1,
                       min_test=5, jobs=2)
    assert exc.value is error
    assert threading.active_count() == threads


def test_run_evaluation_threads(monkeypatch):
    # by default one thread per usable CPU left to the blocks by BLAS,
    # and never more threads than blocks
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", Recording)
    kwargs = dict(upls=[4], cutoffs=[1], repetitions=1, seed=1, min_test=5)
    monkeypatch.setattr(evaluation, "_default_jobs", lambda: 2)
    run_evaluation(_block_dataset(), **kwargs)
    monkeypatch.setattr(evaluation, "_default_jobs", lambda: 8)
    run_evaluation(_block_dataset(), **kwargs)
    run_evaluation(_block_dataset(), jobs=8, user_sample=40, **kwargs)
    run_evaluation(_protocol_dataset(), **kwargs)  # six users: one block
    assert sizes == [2, 3, 2, 1]


@pytest.mark.parametrize("env, jobs", [
    ({}, 1),  # OpenBLAS then uses all 8 CPUs itself
    ({"OPENBLAS_NUM_THREADS": "1"}, 8),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "4"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 8),
    ({"OPENBLAS_NUM_THREADS": "16"}, 1),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "3"}, 2),
])
def test_default_jobs_share_cpus_with_blas(monkeypatch, env, jobs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    for var in evaluation._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert evaluation._default_jobs() == jobs
    # without sched_getaffinity, every CPU counts as usable
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert evaluation._default_jobs() == jobs


def test_run_evaluation_matches_per_user_loop():
    # more kept users than one block, and some of them cold
    ds = _protocol_dataset(n_users=2 * evaluation.EVAL_BLOCK + 5, per_user=10, seed=8)
    cutoffs, upl = [1, 3, 10], 2
    report = run_evaluation(ds, upls=[upl], cutoffs=cutoffs, repetitions=2, seed=4,
                            min_test=5)
    for rep in range(2):
        train, test, kept = upl_split(ds, SplitSpec(upl, min_test=5, seed=4, repetitions=2),
                                      rep)
        ops = user_pref_operators(UserPrefGraph.from_store(derive_preferences(train)))
        poles = item_pole_operators(ds.n_items)
        rows = []
        for u in kept:
            try:
                out = rank_items_for_user(ops, *poles, int(u), k=max(cutoffs),
                                          exclude=train.user_rows(int(u))[0])
            except ColdStartError:
                continue
            items, ratings = test.user_rows(int(u))
            gains = {int(i): float(r) for i, r in zip(items, ratings)}
            rows.append([ndcg_at_k(out.items, gains, k) for k in cutoffs])
        assert 0 < len(rows) < kept.size
        assert report.evaluated_users[(upl, rep)] == len(rows)
        assert report.cold_skipped[(upl, rep)] == kept.size - len(rows)
        for k, want in zip(cutoffs, np.mean(rows, axis=0)):
            assert abs(report.cells[(upl, k)].per_rep[rep] - want) <= 1e-12


def test_run_evaluation_peak_does_not_grow_with_kept_users():
    # one user rates every item, so n_items stays put as users are added;
    # holding any n_items x n_kept array would add at least
    # n_items * 8 bytes per added user to the peak
    n_items = 3000

    def dataset(n_users):
        rng = np.random.default_rng(0)
        lines = [f"0\t{i}\t{i % 5 + 1}" for i in range(n_items)]
        lines += [f"{u}\t{i}\t{rng.integers(1, 6)}" for u in range(1, n_users)
                  for i in rng.choice(n_items, size=12, replace=False)]
        return loads_ratings("\n".join(lines))

    def peak_bytes(ds):
        tracemalloc.start()
        try:
            run_evaluation(ds, upls=[5], cutoffs=[1, 10], repetitions=1, min_test=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    users = 128  # four blocks
    small, large = dataset(users), dataset(2 * users)
    assert small.n_items == large.n_items == n_items
    assert peak_bytes(large) - peak_bytes(small) < n_items * 8 * users / 4


def test_run_evaluation_single_repetition_std_zero():
    ds = _protocol_dataset(seed=5)
    report = run_evaluation(ds, upls=[4], cutoffs=[3], repetitions=1, seed=2, min_test=5)
    assert report.cells[(4, 3)].std == 0.0


def test_run_evaluation_counts_cold_users():
    # every rating ties at 3: no strict preference can be derived, so
    # every kept user is cold-skipped and counted
    ds = loads_ratings("\n".join(f"{u}\t{i}\t3" for u in range(5)
                                 for i in np.random.default_rng(u).choice(
                                     30, size=12, replace=False)))
    report = run_evaluation(ds, upls=[4], cutoffs=[1, 3], repetitions=2,
                            seed=4, min_test=5)
    assert all(v == 0 for v in report.evaluated_users.values())
    assert all(report.cold_skipped[key] > 0 for key in report.cold_skipped)


def test_run_evaluation_builds_nothing_without_warm_kept_users(monkeypatch):
    # the sample keeps one user; giving that user one grade throughout
    # leaves its train profile all ties while the other users keep their
    # preferences, so nobody is ranked and nothing is built.  The split
    # and the sample read no rating, so a probe run names the user.
    rng = np.random.default_rng(9)
    rows = [(u, i, rng.integers(1, 6)) for u in range(6)
            for i in rng.choice(20, size=12, replace=False)]
    kwargs = dict(upls=[4], cutoffs=[1, 3], repetitions=1, seed=2, min_test=5, user_sample=1)
    ranked, real = [], evaluation.rank_block

    def spy(ops, users, *args):
        ranked.extend(users)
        return real(ops, users, *args)

    monkeypatch.setattr(evaluation, "rank_block", spy)
    run_evaluation(loads_ratings("\n".join(f"{u}\t{i}\t{r}" for u, i, r in rows)), **kwargs)
    (sampled,) = ranked
    tied = loads_ratings("\n".join(f"{u}\t{i}\t{3 if u == sampled else r}"
                                    for u, i, r in rows))
    train, _, _ = upl_split(tied, SplitSpec(4, min_test=5, seed=2), 0)
    assert derive_preferences(train).total > 0
    builds = []
    for name in ("splu", "DenseLU"):
        monkeypatch.setattr(graph_module, name, lambda *args, name=name: builds.append(name))
    report = run_evaluation(tied, **kwargs)
    assert report.evaluated_users == {(4, 0): 0} and report.cold_skipped == {(4, 0): 1}
    assert all(cell.per_rep == [0.0] for cell in report.cells.values())
    assert builds == []


def test_run_evaluation_tied_test_items_score_one():
    # when every user's test items tie in rating and no unrated items
    # exist, the candidate pool is exactly the tied test set: any ranking
    # is ideal and NDCG must be exactly 1.  The split samples rows
    # independently of rating values, so probe it once with placeholder
    # ratings, then give train rows varied grades and test rows one grade.
    n_users, n_items, seed = 5, 13, 21
    placeholder = loads_ratings("\n".join(
        f"{u}\t{i}\t1" for u in range(n_users) for i in range(n_items)))
    train, _, _ = upl_split(placeholder, SplitSpec(5, min_test=8, seed=seed), rep=0)
    in_train = {(int(u), int(i)) for u, i in zip(train.users, train.items)}
    lines = []
    for u in range(n_users):
        grade = 1
        for i in range(n_items):
            if (u, i) in in_train:
                lines.append(f"{u}\t{i}\t{grade}")
                grade = grade % 5 + 1
            else:
                lines.append(f"{u}\t{i}\t3")
    ds = loads_ratings("\n".join(lines))
    report = run_evaluation(ds, upls=[5], cutoffs=[1, 3], repetitions=1,
                            seed=seed, min_test=8)
    assert report.evaluated_users[(5, 0)] == n_users
    for cell in report.cells.values():
        for v in cell.per_rep:
            assert v == pytest.approx(1.0, abs=1e-12)


def test_run_evaluation_user_sample():
    ds = _protocol_dataset(n_users=8, seed=11)
    report = run_evaluation(ds, upls=[4], cutoffs=[1], repetitions=1, seed=3,
                            min_test=5, user_sample=3)
    assert report.evaluated_users[(4, 0)] + report.cold_skipped[(4, 0)] == 3


@pytest.mark.parametrize("kwargs, word", [
    (dict(cutoffs=[0, 2]), "cutoffs"),
    (dict(cutoffs=[-1, 2]), "cutoffs"),
    (dict(cutoffs=[]), "cutoffs"),
    (dict(repetitions=0), "repetitions"),
    (dict(user_sample=-3), "user_sample"),
    (dict(jobs=0), "jobs"),
    (dict(jobs=-2), "jobs"),
])
def test_run_evaluation_rejects_invalid_counts(kwargs, word):
    args = dict(upls=[4], cutoffs=[1], repetitions=1, min_test=5) | kwargs
    with pytest.raises(ValueError, match=word):
        run_evaluation(_protocol_dataset(), **args)


def test_distinct_levels_rounding():
    assert distinct_levels([]) == 0
    assert distinct_levels([0.0, 0.0]) == 0
    assert distinct_levels([1.0, 1.0 + 1e-13]) == 1
    assert distinct_levels([1.0, 1.0 + 1e-11]) == 2
    assert distinct_levels([0.5, 0.25, 0.5]) == 2
    # scale must not collapse distinct magnitudes
    assert distinct_levels([1e-9, 1e-8, 1e-7]) == 3
    # rounding up across a power of ten
    assert distinct_levels([9.9999999999995e-3, 1e-2]) == 1


def test_distinct_levels_matches_string_oracle():
    rng = np.random.default_rng(10)
    base = rng.random(50)
    values = np.concatenate([base, base * (1 + 1e-15), base * (1 + 1e-9)])
    expected = len({np.format_float_scientific(v, precision=11, unique=False)
                    for v in values})
    assert distinct_levels(values) == expected


def _oracle_levels(values, sig_digits=12) -> int:
    """Per-value count: round each positive value to sig_digits
    significant digits as an int key (mantissa and exponent, rolled over
    where the mantissa rounds up to a power of ten), then count the
    distinct keys."""
    v = np.asarray(values, dtype=np.float64)
    v = v[v > 0]
    if v.size == 0:
        return 0
    exp = np.floor(np.log10(v)).astype(np.int64)
    mant = np.round(v / np.power(10.0, exp - (sig_digits - 1))).astype(np.int64)
    roll = mant >= 10 ** sig_digits
    mant[roll] //= 10
    exp[roll] += 1
    return int(np.unique(mant * 1000 + (exp + 500)).size)


def _ulp_shift(v, ulps):
    """Each value moved by its own number of representable steps."""
    v = v.copy()
    for _ in range(int(np.abs(ulps).max(initial=0))):
        move = ulps != 0
        v[move] = np.nextafter(v[move], np.where(ulps[move] > 0, np.inf, 0.0))
        ulps = ulps - np.sign(ulps)
    return v


def _level_chunk(kind, rng, n):
    exps = rng.integers(-300, 300, size=n)
    ulps = rng.integers(-3, 4, size=n)
    if kind == "decades":
        return _ulp_shift(10.0 ** exps.astype(np.float64), ulps)
    if kind == "half_points":  # m.5 units of the 12th digit
        mant = rng.integers(10 ** 11, 10 ** 12, size=n) + 0.5
        return _ulp_shift(mant * 10.0 ** (exps - 11).astype(np.float64), ulps)
    if kind == "key_ends":  # both ends of one rounding, up to 1e-11 apart
        mant = rng.integers(10 ** 11, 2 * 10 ** 11, size=n)[:, None] + np.array([-0.49, 0.49])
        return (mant * 10.0 ** (exps - 11).astype(np.float64)[:, None]).ravel()
    if kind == "near":  # exact duplicates and neighbours 1e-13 apart
        base = rng.random(n) * 10.0 ** exps.astype(np.float64)
        return np.concatenate([base, base, base * (1 + 1e-13), base + base * 2e-13])
    if kind == "wide":
        return 10.0 ** rng.uniform(-300, 300, size=n)
    # zeros, negatives and NaN, all ignored
    return rng.choice([0.0, -1.0, np.nan, -1e-300], size=n)


LEVEL_INPUTS = dict(
    size=st.integers(0, 2000), seed=st.integers(0, 2 ** 32 - 1),
    kinds=st.lists(st.sampled_from(["decades", "half_points", "key_ends", "near", "wide",
                                    "junk"]),
                   min_size=1, max_size=5),
    extra=st.lists(st.floats(1e-300, 1e300), max_size=10))
# chunk lengths that put many chunk edges inside runs of near-equal values
SMALL_LEVEL_CHUNKS = [1, 2, 3, 7]


def _levels_match_per_value_rounding(size, seed, kinds, extra):
    rng = np.random.default_rng(seed)
    chunks = [_level_chunk(kind, rng, size // len(kinds)) for kind in kinds]
    values = rng.permutation(np.concatenate(chunks + [np.asarray(extra, dtype=np.float64)]))
    before = values.copy()
    assert distinct_levels(values) == _oracle_levels(values)
    assert np.array_equal(values, before, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(**LEVEL_INPUTS)
def test_distinct_levels_matches_per_value_rounding(size, seed, kinds, extra):
    _levels_match_per_value_rounding(size, seed, kinds, extra)


@pytest.mark.parametrize("chunk", SMALL_LEVEL_CHUNKS)
@settings(max_examples=150, deadline=None)
@given(**LEVEL_INPUTS)
def test_distinct_levels_in_small_chunks_match_per_value_rounding(chunk, size, seed, kinds,
                                                                    extra):
    with mock.patch.object(evaluation, "LEVEL_CHUNK", chunk):
        _levels_match_per_value_rounding(size, seed, kinds, extra)


@pytest.mark.parametrize("chunk", SMALL_LEVEL_CHUNKS)
def test_level_runs_straddling_chunk_edges(chunk):
    # runs of 1 to 4 values, each within a relative 3e-13 of the run's
    # first, so that every run sharing a key, or split by one, meets
    # chunk edges at every offset; the count is the unchunked one
    rng = np.random.default_rng(chunk)
    runs = [base * (1 + np.arange(rng.integers(1, 5)) * 1e-13)
            for base in rng.uniform(1.0, 10.0, size=200) * 10.0 ** rng.integers(-5, 5, size=200)]
    ends = (rng.integers(10 ** 11, 10 ** 12, size=50) + 0.5) * 1e-11  # key boundaries
    values = np.sort(np.concatenate(runs + [ends * (1 - 1e-13), ends, ends * (1 + 1e-13)]))
    want = evaluation._count_levels(values)
    assert want == _oracle_levels(values)
    with mock.patch.object(evaluation, "LEVEL_CHUNK", chunk):
        assert evaluation._count_levels(values) == want
        assert distinct_levels(rng.permutation(values)) == want


def test_diagnostics_levels_match_per_value_rounding():
    # at beta = 1 walk 2 reaches only the restart's pairs, so the pair
    # coverage is below 1 and its count of reached pairs is tested too
    ds = _protocol_dataset(n_users=12, per_user=20, n_items=40, seed=3)
    train, _, _ = upl_split(ds, SplitSpec(10, min_test=5, seed=1, repetitions=1), 0)
    graph = UserPrefGraph.from_store(derive_preferences(train))
    ops = user_pref_operators(graph)
    uni = graph.n_items * (graph.n_items - 1)
    active = np.flatnonzero(ops.user_degrees > 0)
    for cfg in (WalkConfig(), WalkConfig(beta=1.0)):
        report = collect_diagnostics(graph, config=cfg)
        assert len(report.users) == active.size > 1
        for diag in report.users:
            first, second = _full_walks(ops, diag.user, cfg)
            conc, pref = first.concordances, second.pref_mass
            sims = first.similarities[active[active != diag.user]]
            reached_conc = conc[conc > evaluation.NONZERO_EPS]
            reached_pref = pref[pref > evaluation.NONZERO_EPS]
            assert diag.similarity_levels == _oracle_levels(sims)
            assert diag.concordance_levels == _oracle_levels(reached_conc)
            assert diag.pref_mass_levels == _oracle_levels(reached_pref)
            assert diag.concordance_fraction == reached_conc.size / uni
            assert diag.pref_mass_fraction == reached_pref.size / uni
            assert (diag.pref_mass_fraction < 1.0) == (cfg.beta == 1.0)


def test_diagnostics_peak_memory_per_user():
    # 150 users rate 10 items each, 1,500 items in all: the n_items**2
    # walk-2 pair mass dominates one user's diagnostics
    n_items = 1500
    rng = np.random.default_rng(0)
    items = rng.permutation(n_items).reshape(150, 10)
    ds = loads_ratings("\n".join(f"{u}\t{i}\t{rng.integers(1, 6)}"
                                  for u in range(150) for i in items[u]))
    graph = UserPrefGraph.from_store(derive_preferences(ds))
    assert graph.n_items == n_items
    tracemalloc.start()
    try:
        collect_diagnostics(graph, users=[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pair masses themselves, 8 * n_items**2 bytes, and little more:
    # they are sorted in place and their levels counted in chunks
    assert peak <= 1.5 * 8 * n_items ** 2


def test_diagnostics_read_one_build_per_graph(monkeypatch):
    # over one graph, the connectivity report, the operators and every
    # collect_diagnostics call share one column map, one factor and one
    # connectivity report, and report what a fresh graph reports
    calls = {"pair_columns": 0, "factor": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    spy = counted("pair_columns", preferences.pair_columns)
    for module in (preferences, graph_module):
        monkeypatch.setattr(module, "pair_columns", spy)
    for name in ("splu", "DenseLU"):
        monkeypatch.setattr(graph_module, name, counted("factor", getattr(graph_module, name)))
    ds = _protocol_dataset(n_users=12, per_user=20, n_items=40, seed=3)
    train, _, _ = upl_split(ds, SplitSpec(10, min_test=5, seed=1, repetitions=1), 0)
    store = derive_preferences(train)
    graph = UserPrefGraph.from_store(store)
    conn, ops = connectivity_report(graph), user_pref_operators(graph)
    runs = [dict(), dict(users=[2, 0]), dict(sample=3, seed=5)]
    reports = [collect_diagnostics(graph, **kwargs) for kwargs in runs]
    assert calls == {"pair_columns": 1, "factor": 1}
    assert connectivity_report(graph) is conn and user_pref_operators(graph) is ops
    assert len(reports[0].users) > 3
    for kwargs, report in zip(runs, reports):
        fresh = collect_diagnostics(UserPrefGraph.from_store(store), **kwargs)
        assert dataclasses.asdict(report) == dataclasses.asdict(fresh)
    assert calls == {"pair_columns": 4, "factor": 4}


def test_negative_diagnostics_sample_rejected():
    store = random_store(np.random.default_rng(14), n_users=4, n_items=5, fill=0.5)
    with pytest.raises(ValueError, match="sample"):
        collect_diagnostics(UserPrefGraph.from_store(store), sample=-1)


def test_diagnostics_on_connected_toy():
    rng = np.random.default_rng(6)
    ds = random_ratings(rng, n_users=6, n_items=7, min_per_user=4)
    graph = UserPrefGraph.from_store(derive_preferences(ds))
    report = collect_diagnostics(graph)
    assert report.n_users == ds.n_users and report.n_items == ds.n_items
    assert report.universe == ds.n_items * (ds.n_items - 1)
    for u in report.users:
        assert 0.0 <= u.similarity_fraction <= 1.0
        assert 0.0 <= u.concordance_fraction <= 1.0
        assert u.pref_mass_fraction == pytest.approx(1.0)
        assert u.pref_mass_levels >= 1
    if report.connected:
        assert all(u.similarity_fraction == 1.0 for u in report.users)
    table = report.format_table()
    assert "second-walk coverage" in table
    tsv = report.to_tsv()
    assert tsv.startswith("user\t")


def test_diagnostics_single_user():
    store = random_store(np.random.default_rng(1), n_users=1, n_items=5, fill=0.9)
    report = collect_diagnostics(UserPrefGraph.from_store(store))
    assert len(report.users) == 1
    assert report.users[0].similarity_fraction == 0.0


def test_diagnostics_sampling_deterministic():
    store = random_store(np.random.default_rng(14), n_users=8, n_items=6, fill=0.5)
    graph = UserPrefGraph.from_store(store)
    r1 = collect_diagnostics(graph, sample=3, seed=5)
    r2 = collect_diagnostics(graph, sample=3, seed=5)
    assert [u.user for u in r1.users] == [u.user for u in r2.users]
    assert len(r1.users) == 3
