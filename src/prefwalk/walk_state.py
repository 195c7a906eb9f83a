"""Both walks' full state, over preferences and item pairs.

Ranking reads none of it (see `user_walk` and `item_walk`).  The
iterates `run_user_walk` and `run_item_walk` count sweeps for the
convergence tests, up to a `WalkConfig`'s max_iter; diagnostics read
`solve_item_walk`'s mass per pair.

The second walk runs on a preference/pole graph that is never stored:

    pref_mass' = (1 - beta) * pole_to_pref(pole_mass) + beta * restart
    pole_mass' = (1 - beta) * pref_to_pole(pref_mass)

where preference (w, l), over the full universe of ordered pairs,
joins w's win pole (index w) and l's loss pole (index n_items + l),
taking 1/(n_items - 1) of each one's mass and giving each half of its
own.  pole_to_pref output has the form a[winner] + b[loser] (+ restart),
so the walk carries its state as (a, b), a restart coefficient and a
constant: one sweep is O(n_items), and its exact L1 change over the
universe takes one sort and a prefix sum.  The dense mass per pair is
built only when read.

At the fixed point, with k = 1 - beta, c = k**2 / 2, g = c / (n_items - 1),
s = k * beta / 2 and W = s / (1 - 2c) the total win (= loss) mass, the
pole masses w, l of an item with restart marginals qw, ql are

    w - l = s * (qw - ql) / (1 - c - g)
    w + l = (2 * g * W + s * (qw + ql)) / (1 - c + g)

with a = k / (n_items - 1) * w, b = k / (n_items - 1) * l, constant 0
and restart coefficient beta.  `solve_item_walk` returns that state in
O(n_items), with no sweeps and, as its residual, the L1 change one more
sweep would make.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import StochasticOperator
from .item_walk import ScoredItems
from .preferences import decode_pair, universe_size
from .user_walk import UserWalkResult, WalkConfig, _check_finite


def run_user_walk(pref_to_user: StochasticOperator, user_to_pref: StochasticOperator,
                  restart: np.ndarray, config: WalkConfig | None = None) -> UserWalkResult:
    """Iterate the coupled walk from a uniform joint start (half the
    mass on each side) until the joint L1 change drops below tol;
    hitting max_iter first is reported, not fatal."""
    cfg = config or WalkConfig()
    n_users, n_prefs = pref_to_user.matrix.shape
    if restart.shape != (n_prefs,):
        raise ValueError("restart vector does not match the preference side")
    keep = 1.0 - cfg.alpha
    jump = cfg.alpha * restart
    sim = np.full(n_users, 0.5 / n_users)
    con = np.full(n_prefs, 0.5 / n_prefs)
    iterations, residual, converged = 0, np.inf, False
    for _ in range(cfg.max_iter):  # one lock-step sweep
        sim_next = keep * pref_to_user.apply(con)
        con_next = keep * user_to_pref.apply(sim) + jump
        residual = float(np.abs(sim_next - sim).sum() + np.abs(con_next - con).sum())
        sim, con = sim_next, con_next
        iterations += 1
        if residual < cfg.tol:
            converged = True
            break
    _check_finite("user walk", sim, con)
    mass = sim.sum() + con.sum()
    return UserWalkResult(sim / mass, con / mass, iterations, residual, converged)


class _PoleOperator:
    def __init__(self, n_items: int):
        if n_items < 2:
            raise ValueError("need at least 2 items for pairwise poles")
        self.n_items = n_items


def item_pole_operators(n_items: int):
    """Both transitions of the preference/pole graph, as their item count."""
    return _PoleOperator(n_items), _PoleOperator(n_items)


class RestartVector:
    """Sparse distribution over the preference universe, with its
    per-item win and loss marginals."""

    def __init__(self, n_items: int, pair_ids: np.ndarray, weights: np.ndarray):
        if pair_ids.shape != weights.shape:
            raise ValueError("pair_ids and weights must align")
        if pair_ids.size == 0:
            raise ValueError("restart vector needs at least one preference")
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
            raise ValueError("weights must be a distribution")
        self.n_items = n_items
        self.pair_ids = pair_ids  # sorted int64
        self.weights = weights    # sums to 1
        self.winners, self.losers = decode_pair(pair_ids, n_items)
        self.win_sums = np.bincount(self.winners, weights=weights, minlength=n_items)
        self.loss_sums = np.bincount(self.losers, weights=weights, minlength=n_items)


def build_restart(concordances: np.ndarray, observed_ids: np.ndarray,
                  n_items: int) -> RestartVector:
    """Normalize first-walk concordances into a restart distribution
    over the full pair universe (zero off the observed support)."""
    total = concordances.sum()
    if total <= 0:
        raise ValueError("concordances carry no mass")
    return RestartVector(n_items, np.asarray(observed_ids, dtype=np.int64),
                         np.asarray(concordances, dtype=np.float64) / total)


@dataclass(eq=False)
class ItemWalkResult:
    n_items: int
    pole_mass: np.ndarray  # (2 * n_items,): win poles then loss poles
    iterations: int
    residual: float
    converged: bool
    # pref_mass(w, l) = _outer_a[w] + _outer_b[l] + _restart_rate * q(w, l)
    _outer_a: np.ndarray
    _outer_b: np.ndarray
    _restart_rate: float
    _restart: RestartVector

    @property
    def win_mass(self) -> np.ndarray:
        return self.pole_mass[:self.n_items]

    @property
    def loss_mass(self) -> np.ndarray:
        return self.pole_mass[self.n_items:]

    @cached_property
    def pref_mass(self) -> np.ndarray:
        """Dense walk mass per ordered pair, flat over n_items**2 pair
        ids (diagonal entries zero).  O(n_items**2) memory."""
        n = self.n_items
        h = np.add.outer(self._outer_a, self._outer_b)
        h.flat[:: n + 1] = 0.0
        h = h.ravel()
        if self._restart_rate != 0.0:
            h[self._restart.pair_ids] += self._restart_rate * self._restart.weights
        return h


def _abs_outer_sum(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of |x[i] + y[j]| over the full cross product, without
    forming it: sort y once, then each x[i] splits y at -x[i]."""
    ys = np.sort(y)
    prefix = np.concatenate(([0.0], np.cumsum(ys)))
    cnt = np.searchsorted(ys, -x, side="left")
    below = prefix[cnt]
    return float(np.sum(x * (ys.size - 2 * cnt) + (prefix[-1] - 2 * below)))


def _offdiag_abs_delta(da: np.ndarray, db: np.ndarray, dk: float, dr: float,
                       restart: RestartVector) -> float:
    """L1 change of the structured pref mass over all off-diagonal pairs."""
    y = db + dk
    total = _abs_outer_sum(da, y) - float(np.abs(da + y).sum())
    if dr != 0.0:
        plain = da[restart.winners] + y[restart.losers]
        total += float((np.abs(plain + dr * restart.weights) - np.abs(plain)).sum())
    return total


def check_pole_operators(pole_to_pref, pref_to_pole, n_items: int) -> int:
    if pole_to_pref.n_items != n_items or pref_to_pole.n_items != n_items:
        raise ValueError(f"pole operators are not over {n_items} items")
    return n_items


def _item_sweep(a, b, bias: float, rate: float, win, loss, restart: RestartVector,
                beta: float):
    """One sweep of the structured state; returns the next (a, b, win,
    loss) and the L1 change over the pair universe and the poles.  The
    next state always has bias 0 and restart coefficient beta."""
    n = restart.n_items
    keep = 1.0 - beta
    a_next = keep / (n - 1) * win
    b_next = keep / (n - 1) * loss
    row = (n - 1) * (a + bias) + (b.sum() - b) + rate * restart.win_sums
    col = (n - 1) * (b + bias) + (a.sum() - a) + rate * restart.loss_sums
    win_next = 0.5 * keep * row
    loss_next = 0.5 * keep * col
    residual = (
        _offdiag_abs_delta(a_next - a, b_next - b, -bias, beta - rate, restart)
        + float(np.abs(win_next - win).sum() + np.abs(loss_next - loss).sum())
    )
    return a_next, b_next, win_next, loss_next, residual


def _result(restart: RestartVector, a, b, rate: float, win, loss,
            iterations: int, residual: float, converged: bool) -> ItemWalkResult:
    """Renormalize a structured state to unit joint mass.  Its bias is 0:
    the closed form has none, and the iterate's first sweep clears it."""
    _check_finite("item walk", a, b, win, loss)
    n = restart.n_items
    pref_total = (n - 1) * (a.sum() + b.sum()) + rate
    mass = pref_total + win.sum() + loss.sum()
    return ItemWalkResult(
        n_items=n,
        pole_mass=np.concatenate([win, loss]) / mass,
        iterations=iterations,
        residual=residual,
        converged=converged,
        _outer_a=a / mass,
        _outer_b=b / mass,
        _restart_rate=rate / mass,
        _restart=restart,
    )


def solve_item_walk(restart: RestartVector, config: WalkConfig | None = None) -> ItemWalkResult:
    """The walk's fixed point in closed form (see the module docstring)."""
    cfg = config or WalkConfig()
    n = restart.n_items
    beta, keep = cfg.beta, 1.0 - cfg.beta
    c = keep * keep / 2.0
    g = c / (n - 1)
    s = keep * beta / 2.0
    total = s / (1.0 - 2.0 * c)
    diff = s * (restart.win_sums - restart.loss_sums) / (1.0 - c - g)
    both = (2.0 * g * total + s * (restart.win_sums + restart.loss_sums)) / (1.0 - c + g)
    # with two items a pole can have exact mass 0, which the subtraction
    # may round to -1 ulp
    win = np.maximum(0.5 * (both + diff), 0.0)
    loss = np.maximum(0.5 * (both - diff), 0.0)
    a, b = keep / (n - 1) * win, keep / (n - 1) * loss
    residual = _item_sweep(a, b, 0.0, beta, win, loss, restart, beta)[-1]
    return _result(restart, a, b, beta, win, loss, 0, residual, residual < cfg.tol)


def run_item_walk(pole_to_pref, pref_to_pole, restart: RestartVector,
                  config: WalkConfig | None = None) -> ItemWalkResult:
    """Iterate the walk from a uniform joint start (half the mass spread
    over the pair universe, half over the poles)."""
    cfg = config or WalkConfig()
    n = check_pole_operators(pole_to_pref, pref_to_pole, restart.n_items)
    a = np.zeros(n)
    b = np.zeros(n)
    rate, bias = 0.0, 0.5 / universe_size(n)
    win = np.full(n, 0.25 / n)
    loss = np.full(n, 0.25 / n)
    iterations, residual, converged = 0, np.inf, False
    for _ in range(cfg.max_iter):
        a, b, win, loss, residual = _item_sweep(a, b, bias, rate, win, loss, restart,
                                                cfg.beta)
        rate, bias = cfg.beta, 0.0
        iterations += 1
        if residual < cfg.tol:
            converged = True
            break
    return _result(restart, a, b, rate, win, loss, iterations, residual, converged)


def score_items(result: ItemWalkResult) -> ScoredItems:
    """score(i) = win_mass / (win_mass + loss_mass); 0 and undefined
    where both poles hold exactly no mass, which happens only at beta = 1."""
    denom = result.win_mass + result.loss_mass
    defined = denom > 0.0
    scores = np.where(defined, result.win_mass / np.where(defined, denom, 1.0), 0.0)
    return ScoredItems(scores, defined)
