"""First walk: refine user similarities and preference concordances.

A restart walk on the user/preference graph, personalized to one target
user.  Similarity mass and concordance mass push each other through the
two transition operators in lock step (both updates read the previous
sweep's vectors), with a fraction of the concordance mass teleporting
back to the target's own preferences every sweep:

    similarities' = (1 - alpha) * pref_to_user(concordances)
    concordances' = (1 - alpha) * user_to_pref(similarities) + alpha * restart

The walk's result is its fixed point.  Writing L = pref_to_user and
M = user_to_pref, eliminating the concordances leaves one system over
users,

    (I - (1 - alpha)**2 * L @ M) s = (1 - alpha) * alpha * L @ restart
    c = (1 - alpha) * M @ s + alpha * restart

which `solve_user_walk` solves against a sparse LU factor built once per
operators and alpha.  L @ M is substochastic, so the system is
nonsingular for alpha > 0.  Its result reports no sweeps and, as its
residual, the joint L1 change one more sweep would make.

`run_user_walk` iterates the sweep instead, from a uniform joint start,
until the joint L1 change drops below tol; hitting max_iter first is
reported, not fatal.  It counts sweeps, which the convergence tests
measure.  Both return vectors renormalized to unit joint L1 mass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ColdStartError, NumericalError
from .graph import StochasticOperator, UserPrefOperators


@dataclass
class UserWalkConfig:
    alpha: float = 0.15   # restart probability
    tol: float = 1e-10    # joint L1 threshold: stops the iterate, sets `converged`
    max_iter: int = 100   # sweeps of the iterate (the exact solve does none)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class UserWalkResult:
    similarities: np.ndarray  # per user
    concordances: np.ndarray  # per observed preference
    iterations: int
    residual: float
    converged: bool


def restart_vector(ops: UserPrefOperators, target: int) -> np.ndarray:
    """Restart distribution over observed preferences: the target's own
    preferences, discounted by how many users share each one."""
    if not 0 <= target < ops.n_users:
        raise ValueError(f"user {target} out of range")
    cols = ops.pref_columns(target)
    if cols.size == 0:
        raise ColdStartError(f"user {target} has no preferences")
    d = np.zeros(ops.observed_ids.size)
    d[cols] = 1.0 / ops.pref_support[cols]
    return d / d.sum()


def _sweep(pref_to_user: StochasticOperator, user_to_pref: StochasticOperator,
           keep: float, jump: np.ndarray, sim: np.ndarray, con: np.ndarray):
    """One lock-step sweep and the joint L1 change it makes."""
    sim_next = keep * pref_to_user.apply(con)
    con_next = keep * user_to_pref.apply(sim) + jump
    residual = float(np.abs(sim_next - sim).sum() + np.abs(con_next - con).sum())
    return sim_next, con_next, residual


def _check_finite(sim: np.ndarray, con: np.ndarray) -> None:
    if not (np.all(np.isfinite(sim)) and np.all(np.isfinite(con))):
        raise NumericalError("user walk produced non-finite values")


def solve_user_walk(ops: UserPrefOperators, restart: np.ndarray,
                    config: UserWalkConfig | None = None) -> UserWalkResult:
    """The walk's fixed point, from one solve against the operators'
    memoized factor for this alpha (see the module docstring)."""
    cfg = config or UserWalkConfig()
    if restart.shape != (ops.observed_ids.size,):
        raise ValueError("restart vector does not match the preference side")
    keep = 1.0 - cfg.alpha
    jump = cfg.alpha * restart
    sim = ops.user_walk_factor(cfg.alpha).solve(keep * ops.pref_to_user.apply(jump))
    con = keep * ops.user_to_pref.apply(sim) + jump
    _check_finite(sim, con)
    mass = sim.sum() + con.sum()
    sim, con = sim / mass, con / mass
    residual = _sweep(ops.pref_to_user, ops.user_to_pref, keep, jump, sim, con)[2]
    return UserWalkResult(sim, con, 0, residual, residual < cfg.tol)


def run_user_walk(pref_to_user: StochasticOperator, user_to_pref: StochasticOperator,
                  restart: np.ndarray, config: UserWalkConfig | None = None) -> UserWalkResult:
    """Iterate the coupled walk from a uniform joint start (half the
    mass on each side)."""
    cfg = config or UserWalkConfig()
    n_users, n_prefs = pref_to_user.matrix.shape
    if restart.shape != (n_prefs,):
        raise ValueError("restart vector does not match the preference side")
    keep = 1.0 - cfg.alpha
    jump = cfg.alpha * restart
    sim = np.full(n_users, 0.5 / n_users)
    con = np.full(n_prefs, 0.5 / n_prefs)
    iterations, residual, converged = 0, np.inf, False
    for _ in range(cfg.max_iter):
        sim, con, residual = _sweep(pref_to_user, user_to_pref, keep, jump, sim, con)
        iterations += 1
        if residual < cfg.tol:
            converged = True
            break
    _check_finite(sim, con)
    mass = sim.sum() + con.sum()
    return UserWalkResult(sim / mass, con / mass, iterations, residual, converged)
