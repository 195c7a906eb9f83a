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
reads qw and ql off the first walk's mass per item pole, in O(n_items).
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
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class ScoredItems:
    scores: np.ndarray   # in [0, 1]
    defined: np.ndarray  # False where both poles hold no mass (only at beta = 1)


def item_scores(concordance_poles: np.ndarray,
                config: ItemWalkConfig | None = None) -> ScoredItems:
    """Every item's score at walk 2's fixed point, from the concordance
    mass per item pole (win poles, then loss poles)."""
    cfg = config or ItemWalkConfig()
    n = concordance_poles.size // 2
    total = concordance_poles[:n].sum()
    if total <= 0:
        raise ValueError("concordances carry no mass")
    if cfg.beta == 1.0:
        return ScoredItems(np.zeros(n), np.zeros(n, dtype=bool))
    qw, ql = concordance_poles[:n] / total, concordance_poles[n:] / total
    k2 = (1.0 - cfg.beta) ** 2
    c = k2 / 2.0
    g = c / (n - 1)
    rho = (1.0 - c + g) / (1.0 - c - g)
    kappa = k2 / ((n - 1) * (1.0 - k2))
    # with two items one pole can hold exactly no mass, which may round to -1 ulp
    scores = np.clip(0.5 + 0.5 * rho * (qw - ql) / (kappa + qw + ql), 0.0, 1.0)
    return ScoredItems(scores, np.ones(n, dtype=bool))


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
