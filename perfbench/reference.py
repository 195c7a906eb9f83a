"""Converged reference scores, computed apart from the timed code path.

Both walks are linear fixed points, so they can be solved exactly
instead of iterated:

* Walk 1 (user/preference graph, restart alpha) at its fixed point has
  s = k L c and c = k M s + alpha d with k = 1 - alpha, where L spreads
  preference mass to users and M spreads user mass to preferences.
  Eliminating c gives an n_users x n_users system

      (I - k^2 L M) s = k alpha L d,

  factored once per graph and reused for every target user.
* Walk 2 (preference/pole graph, restart beta) depends on the
  concordance restart q only through its per-item win and loss
  marginals, and has a closed form per item (see `item_scores`).

Only the ratings themselves and the package's split are taken from
prefwalk; preferences, operators, walks, scores, rankings and NDCG are
all computed here.
"""

import math

import numpy as np
from scipy import linalg, sparse


class ExactWalks:
    """Exact walk-1 and walk-2 solutions on one ratings set."""

    def __init__(self, users, items, ratings, n_users: int, n_items: int,
                 alpha: float = 0.15, beta: float = 0.15):
        self.n_users, self.n_items = n_users, n_items
        self.alpha, self.beta = alpha, beta
        edge_user, edge_pid = _strict_preferences(users, items, ratings, n_users, n_items)
        self.observed, cols = np.unique(edge_pid, return_inverse=True)
        incidence = sparse.csr_matrix(
            (np.ones(edge_pid.size), (edge_user, cols)), shape=(n_users, self.observed.size))
        self.support = np.asarray(incidence.sum(axis=0)).ravel()
        degree = np.asarray(incidence.sum(axis=1)).ravel()
        self.incidence = incidence
        self.to_user = (incidence @ sparse.diags(1.0 / self.support)).tocsr()  # L
        inv_deg = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
        self.to_pref = (sparse.diags(inv_deg) @ incidence).T.tocsr()           # M
        keep = 1.0 - alpha
        coupling = (self.to_user @ self.to_pref).toarray()
        self._lu = linalg.lu_factor(np.eye(n_users) - keep * keep * coupling)
        self.winners, self.losers = np.divmod(self.observed, n_items)

    def restart(self, target: int) -> np.ndarray:
        cols = self.incidence.indices[self.incidence.indptr[target]:
                                      self.incidence.indptr[target + 1]]
        if cols.size == 0:
            raise ValueError(f"user {target} has no strict preference")
        d = np.zeros(self.observed.size)
        d[cols] = 1.0 / self.support[cols]
        return d / d.sum()

    def user_walk(self, target: int):
        """(similarities, concordances) at the fixed point, joint unit mass."""
        keep, alpha = 1.0 - self.alpha, self.alpha
        d = self.restart(target)
        s = linalg.lu_solve(self._lu, keep * alpha * (self.to_user @ d))
        c = keep * (self.to_pref @ s) + alpha * d
        mass = s.sum() + c.sum()
        return s / mass, c / mass

    def item_scores(self, concordances: np.ndarray) -> np.ndarray:
        """Per-item win share at the fixed point of walk 2.

        With k = 1 - beta, c = k^2/2, g = c/(n-1), s = k beta/2, the
        win/loss pole masses w, l of each item satisfy
            w - l = s (qw - ql) / (1 - c - g)
            w + l = (2 g W + s (qw + ql)) / (1 - c + g),   W = s / (1 - 2c),
        where qw, ql are the item's win/loss marginals of the restart.
        Every item's pole mass is at least 2gW > 0, so all are defined.
        """
        n, beta = self.n_items, self.beta
        q = concordances / concordances.sum()
        qw = np.bincount(self.winners, weights=q, minlength=n)
        ql = np.bincount(self.losers, weights=q, minlength=n)
        k = 1.0 - beta
        c = k * k / 2.0
        g = c / (n - 1)
        s = k * beta / 2.0
        total = s / (1.0 - 2.0 * c)
        diff = s * (qw - ql) / (1.0 - c - g)
        both = (2.0 * g * total + s * (qw + ql)) / (1.0 - c + g)
        return (both + diff) / 2.0 / both

    def scores(self, target: int) -> np.ndarray:
        return self.item_scores(self.user_walk(target)[1])


def _strict_preferences(users, items, ratings, n_users: int, n_items: int):
    """(user, pair id) of every strict preference: winner * n_items + loser."""
    order = np.lexsort((items, users))
    users, items, ratings = users[order], items[order], ratings[order]
    starts = np.searchsorted(users, np.arange(n_users + 1))
    edge_user, edge_pid = [], []
    for u in range(n_users):
        it, r = items[starts[u]:starts[u + 1]], ratings[starts[u]:starts[u + 1]]
        wins = r[:, None] > r[None, :]
        w, l = np.nonzero(wins)
        edge_pid.append(it[w] * n_items + it[l])
        edge_user.append(np.full(w.size, u, dtype=np.int64))
    return np.concatenate(edge_user), np.concatenate(edge_pid)


def ranking(scores: np.ndarray, k: int, exclude=()) -> np.ndarray:
    """Top-k by score, ties toward the smaller item id."""
    banned = np.zeros(scores.size, dtype=bool)
    banned[np.asarray(exclude, dtype=np.int64)] = True
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[~banned[order]][:k]


def topk_matches(produced, ref_scores: np.ndarray, exclude, tol: float) -> bool:
    """True when `produced` is a top-k of ref_scores up to ties within
    tol: position by position its reference score agrees with the
    reference order's, and no item repeats or is excluded."""
    produced = np.asarray(produced, dtype=np.int64)
    best = ranking(ref_scores, produced.size, exclude)
    banned = set(int(e) for e in exclude)
    return (best.size == produced.size
            and len(set(produced.tolist())) == produced.size
            and not banned.intersection(produced.tolist())
            and bool(np.all(np.abs(ref_scores[produced] - ref_scores[best]) <= tol)))


def ndcg_bounds(scores: np.ndarray, gains: dict, k: int, exclude, tol: float) -> tuple:
    """Lowest and highest NDCG@k over every top-k that orders items by
    reference score up to ties within tol.

    Items are sorted by score and cut into tie groups wherever adjacent
    scores differ by more than tol.  A group may be ordered freely, so
    filling it best-gain-first (worst-gain-first) gives the bound.
    """
    order = ranking(scores, scores.size, exclude)
    gap = np.abs(np.diff(scores[order])) > tol
    group = np.concatenate(([0], np.cumsum(gap)))
    gain = np.array([gains.get(int(i), 0.0) for i in order])
    out = []
    for sign in (1.0, -1.0):  # worst first, then best first
        best = order[np.lexsort((sign * gain, group))]
        out.append(ndcg(best, gains, k))
    return tuple(out)


def ndcg(recommended, gains: dict, k: int) -> float:
    """NDCG@k with gain 2**rating - 1 and log2(position + 1) discount."""
    dcg = sum((2.0 ** gains[int(i)] - 1.0) / math.log2(p + 2)
              for p, i in enumerate(recommended[:k]) if int(i) in gains)
    ideal = sorted(gains.values(), reverse=True)[:k]
    idcg = sum((2.0 ** r - 1.0) / math.log2(p + 2) for p, r in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0
