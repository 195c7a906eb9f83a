"""First walk: refine user similarities and preference concordances.

A restart walk on the user/preference graph, personalized to one target
user.  Similarity mass and concordance mass push each other through the
two transition operators in lock step (both updates read the previous
sweep's vectors), with a fraction of the concordance mass teleporting
back to the target's own preferences every sweep:

    similarities' = (1 - alpha) * pref_to_user(concordances)
    concordances' = (1 - alpha) * user_to_pref(similarities) + alpha * restart

The walk's result is its fixed point.  Writing L = pref_to_user and
M = user_to_pref, target u's restart is d = L.T[:, u] / Z_u with
Z = L @ 1, and eliminating the concordances leaves one system over
users,

    (I - (1 - alpha)**2 * L @ M) s = (1 - alpha) * alpha * G[:, u] / Z_u
    c = (1 - alpha) * M @ s + alpha * d

with G = L @ L.T.  L @ M is substochastic, so the system is nonsingular
for alpha > 0.  `solve_user_walks` solves it for a block of targets at
once, one right-hand side per target, against an LU factor built once
per operators and alpha (`UserPrefOperators.user_walk_factor`): a dense
one where L @ M is dense, else SuperLU's, its columns ordered by
minimum degree on L @ M's symmetric pattern.  Both solve through
`.solve`.  The second walk reads c only through its mass per item
pole, B @ c for the pole incidence B, which the precomputed B @ M and
B @ L.T give from s directly:

    B @ c = (1 - alpha) * (B @ M) @ s + alpha * (B @ L.T)[:, u] / Z_u

so ranking does O(n_users + n_items) work beside the solve and never
builds a vector over preferences.  `solve_user_walk` is the walk's full
state for one target: the block of one, with c built from s.  It
reports no sweeps and, as its residual, the joint L1 change one more
sweep would make.  With (s, c) at unit joint mass and m their joint
mass before scaling, that is

    |(1 - alpha) * L @ c - s|_1 + alpha * |1 - 1 / m|

Each column is renormalized to unit joint L1 mass.  The iterate,
`run_user_walk`, lives in `walk_state`.  Both walks read one
`WalkConfig`: this one its alpha, the second its beta, and the iterates
its tol and max_iter.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ColdStartError, NumericalError
from .graph import UserPrefOperators


@dataclass
class WalkConfig:
    """Both walks' settings.  Each walk reads its own restart probability;
    tol and max_iter are shared."""

    alpha: float = 0.15   # walk 1's restart probability
    beta: float = 0.15    # walk 2's restart probability
    tol: float = 1e-10    # joint L1 threshold: stops the iterates, sets `converged`
    max_iter: int = 100   # sweeps of the iterates (the exact solves do none)

    def __post_init__(self):
        # of several bad values, the first in this order is the one
        # reported, and the CLI's usage errors rely on that order
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")


@dataclass(eq=False)
class UserWalkResult:
    """A walk state at unit joint L1 mass, with the sweeps that reached
    it, its residual and whether that is below tol."""

    similarities: np.ndarray  # per user
    concordances: np.ndarray  # per observed preference
    iterations: int
    residual: float
    converged: bool


def _check_targets(ops: UserPrefOperators, targets: np.ndarray) -> None:
    """Every target must exist and hold some preference."""
    for target in targets.tolist():
        if not 0 <= target < ops.n_users:
            raise ValueError(f"user {target} out of range")
        if ops.user_degrees[target] == 0:
            raise ColdStartError(f"user {target} has no preferences")


def restart_vector(ops: UserPrefOperators, target: int) -> np.ndarray:
    """Restart distribution over observed preferences: the target's own
    preferences, discounted by how many users share each one."""
    _check_targets(ops, np.array([target]))
    row = slice(ops.pref_col_indptr[target], ops.pref_col_indptr[target + 1])
    d = np.zeros(ops.observed_ids.size)
    d[ops.pref_col_indices[row]] = ops.pref_to_user.matrix.data[row]  # L.T[:, target]
    return d / d.sum()


def _check_finite(walk: str, *vectors: np.ndarray) -> None:
    if not all(np.all(np.isfinite(v)) for v in vectors):
        raise NumericalError(f"{walk} produced non-finite values")


def _columns(matrix, majors: np.ndarray):
    """Every stored entry of columns `majors` of a CSC matrix, or of
    those rows of a CSR one, as (row or column index, position in
    majors, value), in the order of majors.  Slices, not sparse fancy
    indexing, so one column costs one slice."""
    spans = [slice(matrix.indptr[j], matrix.indptr[j + 1]) for j in majors.tolist()]
    empty = slice(0, 0)  # so that no majors gives empty arrays
    return (np.concatenate([matrix.indices[s] for s in [empty, *spans]]),
            np.repeat(np.arange(len(spans)), [s.stop - s.start for s in spans]),
            np.concatenate([matrix.data[s] for s in [empty, *spans]]))


@dataclass(eq=False)
class UserWalkBlock:
    """Walk 1 for a block of targets, one column per target, each column
    at unit joint L1 mass.  The arrays are column-major, so a column's
    sums run in the same order whatever the block's width."""

    similarities: np.ndarray       # n_users x m
    concordance_poles: np.ndarray  # 2 * n_items x m: win poles, then loss poles
    mass: np.ndarray               # each column's joint L1 mass before scaling


def solve_user_walks(ops: UserPrefOperators, targets,
                     config: WalkConfig | None = None) -> UserWalkBlock:
    """The walk's fixed point for a block of target users, from one
    solve with a right-hand side per target against the operators'
    memoized factor for this alpha, in user space (see the module
    docstring)."""
    cfg = config or WalkConfig()
    targets = np.asarray(targets, dtype=np.int64)
    _check_targets(ops, targets)
    alpha, keep = cfg.alpha, 1.0 - cfg.alpha
    factor = ops.user_walk_factor(alpha)
    space = ops.user_space
    z = space.restart_mass[targets]
    rhs = np.zeros((ops.n_users, targets.size), order="F")
    rows, cols, vals = _columns(space.gram, targets)
    rhs[rows, cols] = keep * alpha * vals / z[cols]
    sim = factor.solve(rhs)
    poles = np.multiply(keep, space.poles_from_users @ sim, order="F")
    rows, cols, vals = _columns(space.poles_from_restart, targets)
    poles[rows, cols] += alpha * vals / z[cols]
    _check_finite("user walk", sim, poles)
    # every preference has one winner, so the win poles hold the concordance mass
    mass = sim.sum(axis=0) + poles[:ops.n_items].sum(axis=0)
    sim /= mass
    poles /= mass
    return UserWalkBlock(sim, poles, mass)


def solve_user_walk(ops: UserPrefOperators, target: int,
                    config: WalkConfig | None = None) -> UserWalkResult:
    """The walk's full fixed point for one target user, concordances and
    residual included: a block of one, then c from s (see the module
    docstring)."""
    cfg = config or WalkConfig()
    alpha, keep = cfg.alpha, 1.0 - cfg.alpha
    block = solve_user_walks(ops, [target], cfg)
    sim, mass = block.similarities[:, 0], block.mass[0]
    con = keep * ops.user_to_pref.apply(sim) + alpha * restart_vector(ops, target) / mass
    residual = float(np.abs(keep * ops.pref_to_user.apply(con) - sim).sum()
                     + alpha * abs(1.0 - 1.0 / mass))
    return UserWalkResult(sim, con, 0, residual, residual < cfg.tol)
