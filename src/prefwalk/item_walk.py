"""Second walk: from preference concordances to per-item scores.

A restart walk on the preference/pole graph spreads the refined
concordance mass over the full universe of ordered item pairs and
collapses it onto per-item win/loss poles:

    pref_mass' = (1 - beta) * pole_to_pref(pole_mass) + beta * restart
    pole_mass' = (1 - beta) * pref_to_pole(pref_mass)

Materializing pref_mass costs n_items**2 memory, but the walk itself
never needs to: pole_to_pref output always has the two-sided form
a[winner] + b[loser] (+ restart), so the state is carried as the pair
(a, b) plus a restart coefficient and a constant.  One sweep is then
O(n_items), and the exact L1 change over the whole universe comes from
a sort-and-prefix-sum pass.  The dense form is materialized lazily only
when asked for.

The walk's result is its fixed point, which depends on the restart only
through its per-item win and loss marginals qw, ql.  With k = 1 - beta,
c = k**2 / 2, g = c / (n_items - 1) and s = k * beta / 2, each item's
win and loss pole masses w, l satisfy

    w - l = s * (qw - ql) / (1 - c - g)
    w + l = (2 * g * W + s * (qw + ql)) / (1 - c + g)

where W = s / (1 - 2c) is the total win mass (equal to the total loss
mass).  At the fixed point a = k / (n_items - 1) * w, b = k / (n_items
- 1) * l, the constant is 0 and the restart coefficient is beta.
`solve_item_walk` returns that state in O(n_items), with no sweeps and,
as its residual, the L1 change one more sweep would make.  Ranking
hands it a restart known only by those marginals, projected from the
first walk in user space (`RestartVector.from_poles`); the pair-level
restart, which `pref_mass` and the iterate read, is built on first
access.
`run_item_walk` iterates the sweep from a uniform joint start instead,
counting sweeps for the convergence tests.

An item's score is the share of its win pole in its total pole mass.
Items whose poles hold (numerically) no mass, which happens only at or
near beta = 1, score zero and are flagged undefined.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .preferences import decode_pair, universe_size

SCORE_FLOOR = 1e-15  # pole mass below this counts as "never reached"


@dataclass
class ItemWalkConfig:
    beta: float = 0.15    # restart probability
    tol: float = 1e-10    # joint L1 threshold: stops the iterate, sets `converged`
    max_iter: int = 100   # sweeps of the iterate (the closed form does none)

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class RestartVector:
    """Sparse distribution over the preference universe.

    The walk's fixed point reads it only through its per-item marginals
    `win_sums` and `loss_sums`.  The pair-level arrays (`pair_ids`,
    `weights`, `winners`, `losers`), which `pref_mass` and the iterate
    read, are built on first access."""

    def __init__(self, n_items: int, pair_ids: np.ndarray, weights: np.ndarray):
        if pair_ids.shape != weights.shape:
            raise ValueError("pair_ids and weights must align")
        if pair_ids.size == 0:
            raise ValueError("restart vector needs at least one preference")
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
            raise ValueError("weights must be a distribution")
        self.n_items = n_items
        self._pairs = lambda: (pair_ids, weights)
        self.win_sums = np.bincount(self.winners, weights=weights, minlength=n_items)
        self.loss_sums = np.bincount(self.losers, weights=weights, minlength=n_items)

    @classmethod
    def from_poles(cls, concordance_poles: np.ndarray, observed_ids: np.ndarray,
                   concordances) -> "RestartVector":
        """`build_restart` from the first walk's concordance mass per item
        pole (win poles, then loss poles), without the concordances:
        `concordances()` returns them when the pair-level arrays are
        first read."""
        n = concordance_poles.size // 2
        total = concordance_poles[:n].sum()
        if total <= 0:
            raise ValueError("concordances carry no mass")

        def pairs():
            c = concordances()
            return np.asarray(observed_ids, dtype=np.int64), c / c.sum()

        q = cls.__new__(cls)
        q.n_items, q._pairs = n, pairs
        q.win_sums = concordance_poles[:n] / total
        q.loss_sums = concordance_poles[n:] / total
        return q

    @cached_property
    def _pair_arrays(self):
        pair_ids, weights = self._pairs()
        return (pair_ids, weights, *decode_pair(pair_ids, self.n_items))

    pair_ids = property(lambda self: self._pair_arrays[0])   # sorted int64
    weights = property(lambda self: self._pair_arrays[1])    # sums to 1
    winners = property(lambda self: self._pair_arrays[2])
    losers = property(lambda self: self._pair_arrays[3])


def build_restart(concordances: np.ndarray, observed_ids: np.ndarray,
                  n_items: int) -> RestartVector:
    """Normalize first-walk concordances into a restart distribution
    over the full pair universe (zero off the observed support)."""
    total = concordances.sum()
    if total <= 0:
        raise ValueError("concordances carry no mass")
    return RestartVector(n_items, np.asarray(observed_ids, dtype=np.int64),
                         np.asarray(concordances, dtype=np.float64) / total)


@dataclass
class ItemWalkResult:
    n_items: int
    pole_mass: np.ndarray  # (2 * n_items,): win poles then loss poles
    iterations: int
    residual: float
    converged: bool
    # pref_mass(w, l) = _outer_a[w] + _outer_b[l] + _bias + _restart_rate * q(w, l)
    _outer_a: np.ndarray
    _outer_b: np.ndarray
    _bias: float
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
        h = np.add.outer(self._outer_a, self._outer_b) + self._bias
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


def _check_operators(pole_to_pref, pref_to_pole, restart: RestartVector) -> int:
    n = restart.n_items
    if pole_to_pref.n_items != n or pref_to_pole.n_items != n:
        raise ValueError("operators and restart vector disagree on the item count")
    return n


def _sweep(a, b, bias: float, rate: float, win, loss, restart: RestartVector,
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


def _result(restart: RestartVector, a, b, bias: float, rate: float, win, loss,
            iterations: int, residual: float, converged: bool) -> ItemWalkResult:
    """Renormalize a structured state to unit joint mass."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))
            and np.all(np.isfinite(win)) and np.all(np.isfinite(loss))):
        raise NumericalError("item walk produced non-finite values")
    n = restart.n_items
    pref_total = (n - 1) * (a.sum() + b.sum()) + universe_size(n) * bias + rate
    mass = pref_total + win.sum() + loss.sum()
    return ItemWalkResult(
        n_items=n,
        pole_mass=np.concatenate([win, loss]) / mass,
        iterations=iterations,
        residual=residual,
        converged=converged,
        _outer_a=a / mass,
        _outer_b=b / mass,
        _bias=bias / mass,
        _restart_rate=rate / mass,
        _restart=restart,
    )


def solve_item_walk(pole_to_pref, pref_to_pole, restart: RestartVector,
                    config: ItemWalkConfig | None = None) -> ItemWalkResult:
    """The walk's fixed point in closed form (see the module docstring)."""
    cfg = config or ItemWalkConfig()
    n = _check_operators(pole_to_pref, pref_to_pole, restart)
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
    residual = _sweep(a, b, 0.0, beta, win, loss, restart, beta)[-1]
    return _result(restart, a, b, 0.0, beta, win, loss, 0, residual, residual < cfg.tol)


def run_item_walk(pole_to_pref, pref_to_pole, restart: RestartVector,
                  config: ItemWalkConfig | None = None) -> ItemWalkResult:
    """Iterate the walk from a uniform joint start (half the mass spread
    over the pair universe, half over the poles)."""
    cfg = config or ItemWalkConfig()
    n = _check_operators(pole_to_pref, pref_to_pole, restart)
    a = np.zeros(n)
    b = np.zeros(n)
    rate, bias = 0.0, 0.5 / universe_size(n)
    win = np.full(n, 0.25 / n)
    loss = np.full(n, 0.25 / n)
    iterations, residual, converged = 0, np.inf, False
    for _ in range(cfg.max_iter):
        a, b, win, loss, residual = _sweep(a, b, bias, rate, win, loss, restart, cfg.beta)
        rate, bias = cfg.beta, 0.0
        iterations += 1
        if residual < cfg.tol:
            converged = True
            break
    return _result(restart, a, b, bias, rate, win, loss, iterations, residual, converged)


@dataclass
class ScoredItems:
    scores: np.ndarray   # in [0, 1]
    defined: np.ndarray  # False where both poles stayed at zero


def score_items(result: ItemWalkResult) -> ScoredItems:
    """score(i) = win_mass / (win_mass + loss_mass), 0 when undefined."""
    denom = result.win_mass + result.loss_mass
    defined = denom > SCORE_FLOOR
    scores = np.where(defined, result.win_mass / np.where(defined, denom, 1.0), 0.0)
    return ScoredItems(scores, defined)


def recommend_topk(scored: ScoredItems, k: int, exclude=()) -> np.ndarray:
    """Top-k item ids by score, ties broken toward the smaller id, as a stable
    descending sort gives them; only the k items at or above the k-th score are sorted."""
    if k < 0:
        raise ValueError("k must be >= 0")
    allowed = np.ones(scored.scores.size, dtype=bool)
    allowed[np.asarray(list(exclude), dtype=np.int64)] = False
    ids = np.flatnonzero(allowed)
    neg = -scored.scores[ids]
    if 0 < k < ids.size and not np.isnan(kth := np.partition(neg, k - 1)[k - 1]):
        keep = neg < kth  # and the smallest ids among those tied with the k-th
        keep[np.flatnonzero(neg == kth)[:k - np.count_nonzero(keep)]] = True
        ids, neg = ids[keep], neg[keep]
    return ids[np.argsort(neg, kind="stable")[:k]]
