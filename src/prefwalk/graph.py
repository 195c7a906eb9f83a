"""The user/preference graph behind the first walk, and its operators.

An edge joins a user to every preference observed in their profile.
The graph is only ever consumed through column-stochastic transition
operators.  (The second walk's preference/pole graph is never stored;
its operators live in `walk_state`.)

Ranking reads the first walk in user space (see user_walk), through
matrices the operators build once per graph, on first use: L @ M,
L @ L.T, L @ 1, and the projections B @ M and B @ L.T of user space onto
the item poles, where L = pref_to_user, M = user_to_pref and B is the
pole incidence of the observed preferences (each preference joins its
winner's win pole and its loser's loss pole).  All are n_users or
n_items wide, never as wide as the preference side.

Pole indexing: win pole of item i is i, loss pole is n_items + i.
"""

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .errors import (DataError, EmptyGraphError, NumericalError, ParseError,
                     PreferenceConflictError)
from .preferences import PreferenceStore, decode_pair, encode_pair, sorted_unique

_SNAPSHOT_MAGIC = b"UPGS"
_SNAPSHOT_VERSION = 1

# Walk 1's factor is a dense LU when L @ M holds more than this share of
# its n_users**2 entries and n_users is at most DENSE_FACTOR_MAX_USERS
# (a dense factor takes 8 * n_users**2 bytes: 128 MiB at the cap).
# Measured densities: 50% on the full ML-100K-shaped file, where SuperLU
# fills in to 782K nonzeros, against 0.55%, 2.8% and 3.3% on its upl=10,
# 30 and 50 splits, which stay sparse.
DENSE_FACTOR_MIN_DENSITY = 1 / 8
DENSE_FACTOR_MAX_USERS = 4096


class UserPrefGraph:
    """Mutable bipartite user/preference graph over one PreferenceStore.

    The graph never writes its store's CSR arrays: `from_store` and
    `to_store` share them in O(1), and each mutation builds new arrays,
    at O(edges) per call, so a store handed in or out never changes.
    Preference nodes exist only once some user holds the preference;
    adding an edge a user already has is a no-op, and adding the
    reverse orientation of one of their pairs is an error.
    """

    def __init__(self, n_users: int, n_items: int):
        if n_users < 0 or n_items < 0:
            raise ValueError("negative node counts")
        self._store = PreferenceStore(n_users, n_items, [0] * (n_users + 1), [])

    @classmethod
    def from_store(cls, store: PreferenceStore) -> "UserPrefGraph":
        g = cls(0, 0)
        g._store = store
        return g

    def to_store(self) -> PreferenceStore:
        return self._store

    n_users = property(lambda self: self._store.n_users)
    n_items = property(lambda self: self._store.n_items)

    # -- mutation ---------------------------------------------------------

    def add_user(self) -> int:
        """Append an isolated user; returns its id."""
        s = self._store
        self._store = PreferenceStore(s.n_users + 1, s.n_items,
                                      np.append(s.indptr, s.indptr[-1]), s.pair_ids)
        return s.n_users

    def add_item(self) -> int:
        """Grow the item universe; returns the new item's id.  Pair ids
        depend on the item count, so every stored id is re-encoded."""
        s = self._store
        w, l = decode_pair(s.pair_ids, s.n_items)
        self._store = PreferenceStore(s.n_users, s.n_items + 1, s.indptr,
                                      encode_pair(w, l, s.n_items + 1))
        return s.n_items

    def add_preference(self, user: int, pair) -> None:
        """Attach one (winner, loser) preference to a user."""
        s, w, l = self._store, int(pair[0]), int(pair[1])
        if not 0 <= user < s.n_users:
            raise ValueError(f"user {user} out of range")
        if w == l or not (0 <= w < s.n_items and 0 <= l < s.n_items):
            raise ValueError(f"invalid item pair ({w}, {l})")
        held, pid = s.prefs_of(user), w * s.n_items + l
        if l * s.n_items + w in held:
            raise PreferenceConflictError(
                f"user {user}: both orientations of items ({w}, {l}) asserted")
        if pid not in held:
            pair_ids = np.insert(s.pair_ids, s.indptr[user] + np.searchsorted(held, pid), pid)
            self._store = PreferenceStore(s.n_users, s.n_items,
                                          s.indptr + (np.arange(s.n_users + 1) > user), pair_ids)

    # -- inspection -------------------------------------------------------

    def prefs_of(self, user: int) -> np.ndarray:
        return self._store.prefs_of(user)

    def user_degree(self, user: int) -> int:
        return self._store.count(user)

    @property
    def n_edges(self) -> int:
        return self._store.total

    def edge_arrays(self):
        """(users, pair_ids) for every edge, sorted by (user, pair_id)."""
        s = self._store
        return np.repeat(np.arange(s.n_users, dtype=np.int64), np.diff(s.indptr)), s.pair_ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, UserPrefGraph):
            return NotImplemented
        return self._store == other._store

    # -- snapshot ---------------------------------------------------------

    def save(self, path) -> None:
        """Binary snapshot: magic, version, counts, then (user, pair_id)
        edge pairs as little-endian 32-bit unsigned ints."""
        users, pids = self.edge_arrays()
        if max(self.n_users, self.n_items * self.n_items) >= 2 ** 32:
            raise DataError("graph too large for the 32-bit snapshot format")
        header = _SNAPSHOT_MAGIC + struct.pack(
            "<IIII", _SNAPSHOT_VERSION, self.n_users, self.n_items, len(users))
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.column_stack([users, pids]).astype("<u4").tobytes())

    @classmethod
    def load(cls, path) -> "UserPrefGraph":
        """Read a snapshot written by `save`.  Edges may come in any
        order; duplicates collapse, as `add_preference` would."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 20 or blob[:4] != _SNAPSHOT_MAGIC:
            raise ParseError(f"{path}: not a graph snapshot")
        version, n_users, n_items, n_edges = struct.unpack("<IIII", blob[4:20])
        if version != _SNAPSHOT_VERSION:
            raise ParseError(f"{path}: unsupported snapshot version {version}")
        body = np.frombuffer(blob[20:], dtype="<u4")
        if body.size != 2 * n_edges:
            raise ParseError(f"{path}: expected {n_edges} edges, found {body.size // 2}")
        users, pids = body.reshape(-1, 2).astype(np.int64).T
        w, l = np.divmod(pids, max(n_items, 1))
        bad = (users >= n_users) | (w >= n_items) | (w == l)
        if bad.any():
            at = bad.argmax()
            raise ParseError(f"{path}: edge ({users[at]}, {pids[at]}) out of range")
        return cls.from_store(PreferenceStore.from_edges(n_users, n_items, users, pids))


@dataclass
class StochasticOperator:
    """A column-stochastic transition, applied as a matrix-vector product."""

    direction: str
    matrix: sparse.csr_matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()


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


@dataclass
class UserPrefOperators:
    """Everything the first walk needs, built once per graph."""

    n_users: int
    n_items: int
    observed_ids: np.ndarray     # sorted pair ids with >= 1 holder
    pref_support: np.ndarray     # holders per observed preference
    user_degrees: np.ndarray     # preferences per user
    pref_to_user: StochasticOperator  # (n_users x P), columns sum to 1
    user_to_pref: StochasticOperator  # (P x n_users), non-empty columns sum to 1
    pref_col_indptr: np.ndarray  # user -> slice into pref_col_indices
    pref_col_indices: np.ndarray  # column index of each of the user's prefs
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pref_columns(self, user: int) -> np.ndarray:
        """Column indices (into observed_ids) of one user's preferences."""
        return self.pref_col_indices[self.pref_col_indptr[user]:self.pref_col_indptr[user + 1]]

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


@dataclass
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
    """Column-normalized transition operators of the user/preference
    graph, read straight from its store's CSR arrays: L = pref_to_user
    takes the store's row layout, and M = user_to_pref is its transpose."""
    store = g.to_store()
    indptr, pids = store.indptr, store.pair_ids
    if pids.size == 0:
        raise EmptyGraphError("graph has no edges")
    observed = sorted_unique(pids)
    cols = np.searchsorted(observed, pids)  # ascending within each user, as pids are
    support = np.bincount(cols, minlength=observed.size).astype(np.float64)
    degrees = np.diff(indptr).astype(np.float64)
    shape = (g.n_users, observed.size)
    to_user = sparse.csr_matrix((1.0 / support[cols], cols, indptr), shape=shape)
    # M in CSC form has L's pattern: column u holds u's preferences
    to_pref = sparse.csc_matrix((1.0 / np.repeat(degrees, np.diff(indptr)), cols, indptr),
                                shape=shape[::-1]).tocsr()
    return UserPrefOperators(
        n_users=g.n_users, n_items=g.n_items, observed_ids=observed, pref_support=support,
        user_degrees=degrees, pref_to_user=StochasticOperator("pref_to_user", to_user),
        user_to_pref=StochasticOperator("user_to_pref", to_pref),
        pref_col_indptr=indptr, pref_col_indices=cols)


@dataclass
class ConnectivityReport:
    connected: bool
    n_components: int
    n_active_users: int
    n_isolated_users: int


def connectivity_report(g: UserPrefGraph) -> ConnectivityReport:
    """Connected components over users-with-edges plus preference nodes."""
    store = g.to_store()
    isolated = int(np.count_nonzero(np.diff(store.indptr) == 0))
    observed = sorted_unique(store.pair_ids)
    n_nodes = g.n_users + observed.size
    # users, then preferences; each user's row lists its preference nodes
    cols = g.n_users + np.searchsorted(observed, store.pair_ids)
    indptr = np.r_[store.indptr, np.full(observed.size, store.total)]
    adj = sparse.csr_matrix((np.ones(cols.size), cols, indptr), shape=(n_nodes, n_nodes))
    # every isolated user is a component of its own, and is not counted
    n_comp = csgraph.connected_components(adj, directed=False)[0] - isolated
    return ConnectivityReport(bool(n_comp == 1), int(n_comp), g.n_users - isolated, isolated)
