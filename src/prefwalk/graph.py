"""The user/preference graph behind the first walk, and its operators.

An edge joins a user to every preference observed in their profile.
The graph is only ever consumed through column-stochastic transition
operators.  (The second walk's preference/pole graph is never stored;
its operators live in `walk_state`.)  The graph is read-only, so it
builds its operators once, on first use, and keeps them:
`user_pref_operators` and `connectivity_report` return that one build
(and one connectivity report) on every call.

Ranking reads the first walk in user space (see user_walk), through
matrices the operators build once, on first use: L @ M,
L @ L.T, L @ 1, and the projections B @ M and B @ L.T of user space onto
the item poles, where L = pref_to_user, M = user_to_pref and B is the
pole incidence of the observed preferences (each preference joins its
winner's win pole and its loser's loss pole).  All are n_users or
n_items wide, never as wide as the preference side.

The operators' columns are the observed preferences, in ascending pair
id order, from `preferences.pair_columns`.  Where the n_items**2 span of
pair ids is at most COUNT_COLUMNS_MAX_SPAN (4) times the store's size it
counts the ids over that span, as on the full ML-100K-shaped file;
otherwise, as on its splits, it sorts them.

Pole indexing: win pole of item i is i, loss pole is n_items + i.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .errors import EmptyGraphError, NumericalError
from .preferences import PreferenceStore, decode_pair, pair_columns

# Walk 1's factor is a dense LU when L @ M holds more than this share of
# its n_users**2 entries and n_users is at most DENSE_FACTOR_MAX_USERS
# (a dense factor takes 8 * n_users**2 bytes: 128 MiB at the cap).
# Measured densities: 50% on the full ML-100K-shaped file, where SuperLU
# fills in to 782K nonzeros, against 0.55%, 2.8% and 3.3% on its upl=10,
# 30 and 50 splits, which stay sparse.
DENSE_FACTOR_MIN_DENSITY = 1 / 8
DENSE_FACTOR_MAX_USERS = 4096


class UserPrefGraph:
    """Read-only user/preference graph: a view that shares one
    PreferenceStore.  It builds its operators once, on first use, and
    keeps them, with the factors and `user_space` they build in turn."""

    def __init__(self, store: PreferenceStore):
        self._store = store

    @classmethod
    def from_store(cls, store: PreferenceStore) -> "UserPrefGraph":
        return cls(store)

    def to_store(self) -> PreferenceStore:
        return self._store

    n_users = property(lambda self: self._store.n_users)
    n_items = property(lambda self: self._store.n_items)

    def user_degree(self, user: int) -> int:
        return self._store.count(user)

    @cached_property
    def _operators(self) -> "UserPrefOperators":
        """`user_pref_operators`, read straight from the store's CSR
        arrays: L = pref_to_user takes the store's row layout, and
        M = user_to_pref is its transpose."""
        store = self._store
        indptr, pids = store.indptr, store.pair_ids
        if pids.size == 0:
            raise EmptyGraphError("graph has no edges")
        observed, support, cols = pair_columns(store)  # cols ascend within each user, as pids do
        support = support.astype(np.float64)
        degrees = np.diff(indptr).astype(np.float64)
        shape = (self.n_users, observed.size)
        to_user = sparse.csr_matrix((1.0 / support[cols], cols, indptr), shape=shape)
        # M in CSC form has L's pattern: column u holds u's preferences
        to_pref = sparse.csc_matrix((1.0 / np.repeat(degrees, np.diff(indptr)), cols, indptr),
                                    shape=shape[::-1]).tocsr()
        return UserPrefOperators(
            n_users=self.n_users, n_items=self.n_items, observed_ids=observed,
            pref_support=support, user_degrees=degrees, pref_to_user=StochasticOperator(to_user),
            user_to_pref=StochasticOperator(to_pref))

    @cached_property
    def _connectivity(self) -> "ConnectivityReport":
        """`connectivity_report`: the edges are the pattern of the
        operators' L."""
        isolated = int(np.count_nonzero(np.diff(self._store.indptr) == 0))
        if self._store.total == 0:  # no edges, and so no operators
            return ConnectivityReport(False, 0, 0, isolated)
        to_user = self._operators.pref_to_user.matrix
        n_prefs = to_user.shape[1]
        n_nodes = self.n_users + n_prefs
        # users, then preferences; each user's row lists its preference nodes
        cols = np.add(to_user.indices, self.n_users, dtype=np.int64)
        indptr = np.r_[to_user.indptr, np.full(n_prefs, to_user.nnz)]
        adj = sparse.csr_matrix((np.ones(cols.size), cols, indptr), shape=(n_nodes, n_nodes))
        # every isolated user is a component of its own, and is not counted
        n_comp = csgraph.connected_components(adj, directed=False)[0] - isolated
        return ConnectivityReport(bool(n_comp == 1), int(n_comp), self.n_users - isolated,
                                  isolated)


@dataclass(eq=False)
class StochasticOperator:
    """A column-stochastic transition, applied as a matrix-vector product."""

    matrix: sparse.csr_matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec


class DenseLU:
    """LU factor of a square Fortran-ordered matrix, which it overwrites,
    through LAPACK's getrf and getrs called directly: scipy's `lu_solve`
    spends about 0.5 ms per call checking its arguments, as much as a
    one-column solve on 943 users costs.  getrs releases the GIL."""

    def __init__(self, matrix: np.ndarray):
        self.lu, self.piv, info = dgetrf(matrix, overwrite_a=True)
        if info != 0:
            raise NumericalError(f"dense LU failed: LAPACK getrf info {info}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution for each column of rhs, Fortran-ordered."""
        # scipy's getrs shifts the pivots it is given to 1-based and back
        # in place, so each call gets its own copy: threads share the factor
        return dgetrs(self.lu, self.piv.copy(), rhs)[0]


@dataclass(eq=False)
class UserPrefOperators:
    """Everything the first walk needs, built once per graph."""

    n_users: int
    n_items: int
    observed_ids: np.ndarray     # sorted pair ids with >= 1 holder
    pref_support: np.ndarray     # holders per observed preference
    user_degrees: np.ndarray     # preferences per user
    pref_to_user: StochasticOperator  # (n_users x P), columns sum to 1
    user_to_pref: StochasticOperator  # (P x n_users), non-empty columns sum to 1
    _factors: dict = field(default_factory=dict, init=False, repr=False)
    # L's own arrays: user -> slice of pref_col_indices, the column of each preference
    pref_col_indptr = property(lambda self: self.pref_to_user.matrix.indptr)
    pref_col_indices = property(lambda self: self.pref_to_user.matrix.indices)

    def user_walk_factor(self, alpha: float):
        """LU factor of I - (1 - alpha)**2 * L @ M, with L = pref_to_user
        and M = user_to_pref: the first walk's fixed point in user space.
        Built on first use for each alpha, then kept; the first call also
        builds `user_space`.  Either kind solves with `.solve(rhs)`.

        Where L @ M is dense (see DENSE_FACTOR_MIN_DENSITY) the factor is
        a `DenseLU`: a sparse one would fill in.  Otherwise it is
        SuperLU's, and as L @ M's pattern is symmetric (entry (u, v) is
        nonzero exactly when u and v share a preference), its columns
        are ordered by minimum degree on that pattern."""
        factor = self._factors.get(alpha)
        if factor is None:
            keep, n = 1.0 - alpha, self.n_users
            coupling = self.user_space.coupling
            if n <= DENSE_FACTOR_MAX_USERS and coupling.nnz > DENSE_FACTOR_MIN_DENSITY * n * n:
                # entry for entry the same system as the sparse branch's
                system = coupling.toarray(order="F")
                system *= -(keep * keep)
                system[np.arange(n), np.arange(n)] += 1.0
                factor = DenseLU(system)
            else:
                system = sparse.identity(n) - keep * keep * coupling
                factor = splu(system.tocsc(), permc_spec="MMD_AT_PLUS_A")
            self._factors[alpha] = factor
        return factor

    @cached_property
    def user_space(self) -> "UserSpaceOperators":
        """The alpha-free matrices that rank from user space, built on
        first use."""
        to_user, to_pref = self.pref_to_user.matrix, self.user_to_pref.matrix
        # L.T in CSR form: M's pattern, each preference's row holding 1/support
        pref_to_user_t = sparse.csr_matrix(
            (np.repeat(1.0 / self.pref_support, np.diff(to_pref.indptr)),
             to_pref.indices, to_pref.indptr), shape=to_pref.shape)
        n, n_prefs = self.n_items, self.observed_ids.size
        winners, losers = decode_pair(self.observed_ids, n)
        poles = sparse.csc_matrix(
            (np.ones(2 * n_prefs), np.column_stack([winners, n + losers]).ravel(),
             np.arange(0, 2 * n_prefs + 1, 2)), shape=(2 * n, n_prefs)).tocsr()
        return UserSpaceOperators(
            coupling=to_user @ to_pref,
            gram=to_user @ pref_to_user_t,
            restart_mass=np.asarray(to_user.sum(axis=1)).ravel(),
            poles_from_users=poles @ to_pref,
            poles_from_restart=(poles @ pref_to_user_t).tocsc(),
        )


@dataclass(eq=False)
class UserSpaceOperators:
    """Walk 1 seen from user space.  With L = pref_to_user, M =
    user_to_pref and B the (2 * n_items x P) pole incidence of the
    observed preferences, target u's restart is L.T[:, u] / (L @ 1)[u]."""

    coupling: sparse.csr_matrix            # L @ M, n_users x n_users
    gram: sparse.csr_matrix                # L @ L.T, symmetric: row u is column u
    restart_mass: np.ndarray               # L @ 1, per user
    poles_from_users: sparse.csr_matrix    # B @ M, 2 * n_items x n_users
    poles_from_restart: sparse.csc_matrix  # B @ L.T, 2 * n_items x n_users


def user_pref_operators(g: UserPrefGraph) -> UserPrefOperators:
    """Column-normalized transition operators of the graph: built by the
    graph's first call, and the same object on every later one."""
    return g._operators


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    n_components: int
    n_active_users: int
    n_isolated_users: int


def connectivity_report(g: UserPrefGraph) -> ConnectivityReport:
    """Connected components over users-with-edges plus preference nodes:
    found by the graph's first call, and the same report on every later one."""
    return g._connectivity
