"""Second walk: from preference concordances to per-item scores.

A restart walk on the preference/pole graph spreads the refined
concordance mass over the full universe of ordered item pairs and
collapses it onto per-item win/loss poles (see `walk_state`).  An
item's score is its win pole's share of its pole mass at the walk's
fixed point, which depends on the restart only through the item's win
and loss marginals qw, ql.  With k = 1 - beta, c = k**2 / 2 and
g = c / (n_items - 1), at beta < 1 it is

    score = 1/2 + 1/2 * rho * (qw - ql) / (kappa + qw + ql)
    rho = (1 - c + g) / (1 - c - g),  kappa = k**2 / ((n_items - 1) * (1 - k**2))

The denominator is at least kappa > 0, so every item is defined, and an
item the first walk never reached scores exactly 1/2.  At beta = 1 the
poles hold no mass: every score is 0 and flagged undefined.  Ranking
reads qw and ql off the first walk's mass per item pole, in O(n_items)
per user, for one user or for a block of them (one column each), and
takes each user's top-k with `topk_rows`.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ItemWalkConfig:
    beta: float = 0.15    # restart probability
    tol: float = 1e-10    # joint L1 threshold: stops the iterate, sets `converged`
    max_iter: int = 100   # sweeps of the iterate (the closed form does none)

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(eq=False)
class ScoredItems:
    scores: np.ndarray   # in [0, 1]; n_items, or n_items x m for a block of users
    defined: np.ndarray  # False where both poles hold no mass (only at beta = 1)


def item_scores(concordance_poles: np.ndarray,
                config: ItemWalkConfig | None = None) -> ScoredItems:
    """Every item's score at walk 2's fixed point, from the concordance
    mass per item pole (win poles, then loss poles), along axis 0: one
    user's 2 * n_items vector, or one column per user of a block."""
    cfg = config or ItemWalkConfig()
    n = concordance_poles.shape[0] // 2
    total = concordance_poles[:n].sum(axis=0)
    if np.any(total <= 0):
        raise ValueError("concordances carry no mass")
    shape = concordance_poles[:n].shape
    if cfg.beta == 1.0:
        return ScoredItems(np.zeros(shape), np.zeros(shape, dtype=bool))
    qw, ql = concordance_poles[:n] / total, concordance_poles[n:] / total
    k2 = (1.0 - cfg.beta) ** 2
    c = k2 / 2.0
    g = c / (n - 1)
    rho = (1.0 - c + g) / (1.0 - c - g)
    kappa = k2 / ((n - 1) * (1.0 - k2))
    # 1/2 + 1/2 * rho * (qw - ql) / (kappa + qw + ql), in place on (m x) n_items arrays
    scores = qw - ql
    scores *= 0.5 * rho
    qw += kappa
    qw += ql
    scores /= qw
    scores += 0.5
    # with two items one pole can hold exactly no mass, which may round to -1 ulp
    np.clip(scores, 0.0, 1.0, out=scores)
    return ScoredItems(scores, np.ones(shape, dtype=bool))


def exclusion_mask(n_items: int, excludes) -> np.ndarray:
    """(len(excludes) x n_items) mask, row r True at the item ids in excludes[r]."""
    mask = np.zeros((len(excludes), n_items), dtype=bool)
    for row, ids in zip(mask, excludes):
        # an id array indexes as it is; other iterables, sets too, as a list
        row[ids if isinstance(ids, np.ndarray) else list(ids)] = True
    return mask


def topk_rows(scores: np.ndarray, k: int, excluded: np.ndarray):
    """Each row's top-k item ids by score, ties broken toward the smaller
    id, as a stable descending sort gives them.  scores and the excluded
    mask are (m x n_items).  Returns (ids, counts): ids is m x min(k,
    n_items), and row r's ranking is its first counts[r] ids, fewer than
    k where the row allows fewer items.  Only the chosen items are sorted:
    a partition at the k-th value picks them, unless some row's k-th
    value is not finite (too few allowed items, or NaN scores); then
    every item is sorted."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m, n = scores.shape
    width = min(k, n)
    counts = np.minimum(width, n - excluded.sum(axis=1))
    neg = np.negative(scores)
    neg[excluded] = np.inf
    if 0 < width < n:
        kth = np.partition(neg, width - 1, axis=1)[:, width - 1:width]
        if np.isfinite(kth).all():
            below, tied = neg < kth, neg == kth
            # and the smallest ids among those tied with the k-th
            spare = width - below.sum(axis=1)
            cut = tied.sum(axis=1) > spare
            if cut.any():
                tied[cut] &= np.cumsum(tied[cut], axis=1) <= spare[cut, None]
            flat = np.flatnonzero(below | tied).reshape(m, width)
            order = np.argsort(neg.ravel()[flat], axis=1, kind="stable")
            return flat[np.arange(m)[:, None], order] % n, counts
    # allowed items first, NaN scores last among them, ties in id order
    return np.lexsort((neg, excluded), axis=1)[:, :width], counts


def recommend_topk(scored: ScoredItems, k: int, exclude=()) -> np.ndarray:
    """Top-k item ids of one user's scores: `topk_rows` for one row."""
    ids, counts = topk_rows(scored.scores[None, :], k,
                            exclusion_mask(scored.scores.size, [exclude]))
    return ids[0, :counts[0]]
