"""Dense brute-force reference implementations.

Everything here mirrors the sparse/structured production code with
plain dense matrices and explicit loops, so the two can be checked
against each other on small instances.  Size guards keep these from
being used at real scale by accident.

Both walks are instances of one affine iteration on a stacked vector

    z' = (1 - rate) * X @ z + rate * restart

where X couples the two node blocks of a bipartite graph.  While z has
unit L1 mass this is exactly power iteration on the rank-one-corrected
matrix (1 - rate) * X + rate * restart @ ones.T; the fixed point is the
walk's stationary vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ColdStartError, DimensionGuardError, NumericalError
from .preferences import dense_index

MAX_DENSE_DIM = 10_000
MAX_POLE_ITEMS = 50


@dataclass(eq=False)
class DenseSystem:
    """Stacked affine system for one walk."""

    matrix: np.ndarray   # (m, m), block off-diagonal coupling
    restart: np.ndarray  # (m,), unit L1 mass
    rate: float          # restart probability
    split: int           # first index of the second block

    def __post_init__(self):
        m = self.matrix.shape[0]
        if self.matrix.shape != (m, m) or self.restart.shape != (m,):
            raise ValueError("matrix must be square and match the restart vector")
        if m > MAX_DENSE_DIM:
            raise DimensionGuardError(f"dense system of dim {m} exceeds {MAX_DENSE_DIM}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if abs(self.restart.sum() - 1.0) > 1e-9:
            raise ValueError("restart vector must have unit L1 mass")
        colsums = np.abs(self.matrix).sum(axis=0)
        if np.any(colsums > 1.0 + 1e-9):
            raise ValueError("matrix columns must sum to at most 1")
        if not 0 <= self.split <= m:
            raise ValueError("split out of range")

    def block_uniform_start(self) -> np.ndarray:
        """Half the mass spread uniformly over each block."""
        z = np.empty(self.matrix.shape[0])
        z[:self.split] = 0.5 / self.split
        z[self.split:] = 0.5 / (len(z) - self.split)
        return z


def stacked_system(top_right, bottom_left, restart_top, restart_bottom, rate) -> DenseSystem:
    """Assemble [[0, TR], [BL, 0]] with a stacked restart vector."""
    a, b = np.atleast_2d(top_right), np.atleast_2d(bottom_left)
    na, nb = a.shape[0], b.shape[0]
    if a.shape != (na, nb) or b.shape != (nb, na):
        raise ValueError("block shapes are inconsistent")
    x = np.zeros((na + nb, na + nb))
    x[:na, na:] = a
    x[na:, :na] = b
    return DenseSystem(x, np.concatenate([restart_top, restart_bottom]), rate, na)


def dense_fixed_point(system: DenseSystem, tol: float = 1e-10, max_iter: int = 100,
                      start=None) -> np.ndarray:
    """Iterate the affine system to its fixed point; returns the final
    vector renormalized to unit L1 mass."""
    z = system.block_uniform_start() if start is None else np.array(start, dtype=float)
    keep = 1.0 - system.rate
    jump = system.rate * system.restart
    for _ in range(max_iter):
        z_next = keep * (system.matrix @ z) + jump
        residual = np.abs(z_next - z).sum()
        z = z_next
        if residual < tol:
            break
    if not np.all(np.isfinite(z)):
        raise NumericalError("dense iteration produced non-finite values")
    return z / z.sum()


def dense_user_pref_matrices(store):
    """Build the user/preference incidence and its two column-normalized
    transitions with explicit loops.  Returns (observed_ids, A, L, M):
    L spreads preference mass to users, M spreads user mass to prefs."""
    observed = sorted({int(p) for p in store.pair_ids})
    if store.n_users + len(observed) > MAX_DENSE_DIM:
        raise DimensionGuardError("store too large for the dense reference path")
    col_of = {pid: j for j, pid in enumerate(observed)}
    a = np.zeros((store.n_users, len(observed)))
    for u in range(store.n_users):
        for pid in store.prefs_of(u):
            a[u, col_of[int(pid)]] = 1.0
    support = a.sum(axis=0)
    degree = a.sum(axis=1)
    l = a / np.where(support > 0, support, 1.0)
    m = np.zeros((len(observed), store.n_users))
    for u in range(store.n_users):
        if degree[u] > 0:
            m[:, u] = a[u, :] / degree[u]
    return np.array(observed, dtype=np.int64), a, l, m


def dense_pole_matrices(n_items: int):
    """Dense transitions of the preference/pole graph over the
    diagonal-free preference enumeration.  Returns (W, T)."""
    if n_items > MAX_POLE_ITEMS:
        raise DimensionGuardError(f"{n_items} items exceeds the dense pole guard")
    if n_items < 2:
        raise ValueError("need at least 2 items")
    n = n_items
    rows = [(w, l) for w in range(n) for l in range(n) if w != l]
    w_mat = np.zeros((len(rows), 2 * n))
    t_mat = np.zeros((2 * n, len(rows)))
    for r, (w, l) in enumerate(rows):
        w_mat[r, w] = 1.0 / (n - 1)       # winner's win pole
        w_mat[r, n + l] = 1.0 / (n - 1)   # loser's loss pole
        t_mat[w, r] = 0.5
        t_mat[n + l, r] = 0.5
    return w_mat, t_mat


def dense_restart_vector(store, target: int, observed_ids, support) -> np.ndarray:
    """Target user's restart distribution: support-discounted weight on
    each of their preferences, renormalized to unit mass."""
    ids = store.prefs_of(target)
    if ids.size == 0:
        raise ColdStartError(f"user {target} has no preferences")
    d = np.zeros(len(observed_ids))
    pos = {int(p): j for j, p in enumerate(observed_ids)}
    for pid in ids:
        d[pos[int(pid)]] = 1.0 / support[pos[int(pid)]]
    return d / d.sum()


@dataclass(eq=False)
class DenseRanking:
    similarities: np.ndarray  # per user
    concordances: np.ndarray  # per observed preference
    pref_mass: np.ndarray     # full universe, flat n_items**2, zero diagonal
    pole_mass: np.ndarray     # 2 * n_items
    scores: np.ndarray        # per item
    defined: np.ndarray       # bool per item
    items: np.ndarray         # ranked recommendation


def dense_reference_ranking(store, target: int, alpha: float = 0.15, beta: float = 0.15,
                            tol: float = 1e-10, max_iter: int = 100, k: int = 10,
                            exclude=()) -> DenseRanking:
    """End-to-end dense pipeline: both walks, scores, top-k."""
    n = store.n_items
    observed, a, l, m = dense_user_pref_matrices(store)
    d = dense_restart_vector(store, target, observed, a.sum(axis=0))

    first = stacked_system(l, m, np.zeros(store.n_users), d, alpha)
    z1 = dense_fixed_point(first, tol=tol, max_iter=max_iter)
    similarities, concordances = z1[:store.n_users], z1[store.n_users:]

    q = np.zeros(n * (n - 1))
    q[dense_index(observed, n)] = concordances / concordances.sum()
    w_mat, t_mat = dense_pole_matrices(n)
    second = stacked_system(w_mat, t_mat, q, np.zeros(2 * n), beta)
    z2 = dense_fixed_point(second, tol=tol, max_iter=max_iter)
    h_offdiag, pole_mass = z2[:n * (n - 1)], z2[n * (n - 1):]

    pref_mass = np.zeros(n * n)
    offdiag = np.ones(n * n, dtype=bool)
    offdiag[:: n + 1] = False
    pref_mass[offdiag] = h_offdiag

    scores = np.zeros(n)
    defined = np.zeros(n, dtype=bool)
    for i in range(n):
        win, loss = pole_mass[i], pole_mass[n + i]
        if win + loss > 1e-15:
            scores[i] = win / (win + loss)
            defined[i] = True
    banned = set(int(e) for e in exclude)
    ranked = [i for i in sorted(range(n), key=lambda i: (-scores[i], i)) if i not in banned]
    return DenseRanking(similarities, concordances, pref_mass, pole_mass,
                        scores, defined, np.array(ranked[:k], dtype=np.int64))
