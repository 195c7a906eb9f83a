"""Pairwise preferences and their integer encoding.

A preference is an ordered item pair (winner, loser): the user rated the
winner strictly higher than the loser.  Ties produce no preference.  Each
pair is packed into a single integer id

    pair_id = winner * n_items + loser

so the full universe of possible preferences over n_items has
n_items * (n_items - 1) members (the diagonal is invalid).  The encoding
is dense-item-id based, which makes ids cheap to sort and intersect but
means they must be recomputed if the item universe grows.

A PreferenceStore keeps every user's ids in one CSR layout: `indptr`
(n_users + 1 offsets) into one flat int64 `pair_ids` array, ascending
and unique within each user.  It is the only in-memory form of the
preferences; the graph and its operators read these arrays directly.
`pair_columns` is the one place that de-duplicates a store's pair ids.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreferenceConflictError


def encode_pair(winner, loser, n_items: int):
    """Pack (winner, loser) into a pair id.  Accepts scalars or arrays."""
    return np.asarray(winner, dtype=np.int64) * n_items + np.asarray(loser, dtype=np.int64)


def decode_pair(pair_id, n_items: int):
    """Unpack pair ids back to (winner, loser)."""
    pid = np.asarray(pair_id, dtype=np.int64)
    return pid // n_items, pid % n_items


def dense_index(pair_id, n_items: int):
    """Index of a pair id in the diagonal-free enumeration.

    Pairs sorted by (winner, loser) with the diagonal skipped occupy
    positions 0 .. n_items*(n_items-1)-1; this maps a pair id to its
    position in that enumeration.
    """
    w, l = decode_pair(pair_id, n_items)
    return w * (n_items - 1) + l - (l > w)


def sorted_unique(values) -> np.ndarray:
    """np.unique of an integer array, by one sort and a change mask:
    several times faster than np.unique on millions of pair ids."""
    v = np.sort(np.asarray(values))
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


# pair_columns counts pair ids over all n_items**2 of them when that span
# is at most COUNT_COLUMNS_MAX_SPAN times the store's size, and sorts them
# otherwise.  A count passes over the span and holds an int64 per possible
# id; a sort passes over the ids about log2(size) times.  On the seed-1
# benchmark file (2 vCPUs) counting took 77 ms against 352 ms for the sort
# on the full file (span 0.62 times the size) and 15 against 19 ms on its
# upl=80 split (9.5 times), but lost on its upl=30 and upl=10 splits (26
# and 96 times): 11 against 7.2 ms and 8.9 against 2.2 ms.  The bound sits
# below that crossover so that the count array is never more than 4 times
# the size of the store's own pair ids.
COUNT_COLUMNS_MAX_SPAN = 4


def pair_columns(store: "PreferenceStore"):
    """(observed, support, cols) of a store's pair ids: the distinct ids,
    ascending, how many users hold each, and each entry's index into
    `observed`.  Equal to np.unique(pair_ids, return_inverse=True,
    return_counts=True) reordered, dtypes included."""
    pids, span = store.pair_ids, store.n_items * store.n_items
    if span <= COUNT_COLUMNS_MAX_SPAN * store.total:
        counts = np.bincount(pids, minlength=span)
        observed = np.flatnonzero(counts)
        support = counts[observed]
        counts[observed] = np.arange(observed.size)  # now each held id's column
        return observed, support, counts[pids]
    observed = sorted_unique(pids)
    cols = np.searchsorted(observed, pids)
    return observed, np.bincount(cols, minlength=observed.size), cols


def universe_size(n_items: int) -> int:
    """Number of possible ordered preferences over n_items."""
    return n_items * (n_items - 1)


@dataclass(eq=False)
class PreferenceStore:
    """Observed preferences in CSR form: user u holds pair_ids[indptr[u]:
    indptr[u + 1]], ascending and unique.  The arrays are never written
    after construction, so graphs and operators share them uncopied."""

    n_users: int
    n_items: int
    indptr: np.ndarray    # int64, n_users + 1 offsets into pair_ids
    pair_ids: np.ndarray  # int64, all users' ids, one sorted run per user

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.pair_ids = np.asarray(self.pair_ids, dtype=np.int64)
        if (self.indptr.shape != (self.n_users + 1,) or self.indptr[0] != 0 or self.indptr[-1]
                != self.pair_ids.size or np.any(self.indptr[1:] < self.indptr[:-1])):
            raise ValueError("indptr must hold n_users + 1 ascending offsets spanning pair_ids")
        rising = np.append(self.pair_ids[1:] > self.pair_ids[:-1], True)
        rising[self.indptr[1:-1] - 1] = True  # the step into the next user's run may fall
        if not rising.all():
            raise ValueError("each user's pair ids must be ascending and unique")

    @classmethod
    def from_edges(cls, n_users: int, n_items: int, users, pair_ids) -> "PreferenceStore":
        """Build from in-range (user, pair id) edges in any order.  Duplicates
        collapse; one user holding both orientations of an item pair is rejected."""
        span = max(n_items * n_items, 1)  # every pair id is below it
        if n_users * span >= 2 ** 63:
            raise ValueError("too many users and items to key edges as int64")
        keys = np.asarray(users, dtype=np.int64) * span + np.asarray(pair_ids, dtype=np.int64)
        users, pair_ids = np.divmod(sorted_unique(keys), span)
        w, l = decode_pair(pair_ids, n_items)
        # with duplicates gone, a user holding an unordered pair twice holds both orientations
        held = np.sort(users * span + np.minimum(w, l) * n_items + np.maximum(w, l))
        twice = held[1:][held[1:] == held[:-1]]
        if twice.size:
            u, (a, b) = twice[0] // span, decode_pair(twice[0] % span, n_items)
            raise PreferenceConflictError(
                f"user {u}: both orientations of items ({a}, {b}) asserted")
        return cls(n_users, n_items, np.searchsorted(users, np.arange(n_users + 1)), pair_ids)

    @classmethod
    def from_pairs(cls, n_users: int, n_items: int, pairs_by_user) -> "PreferenceStore":
        """Build from n_users iterables of (winner, loser) tuples, one
        per user, as from_edges does."""
        pairs = [list(p) for p in pairs_by_user]
        if len(pairs) != n_users:
            raise ValueError(f"pairs given for {len(pairs)} users, not n_users = {n_users}")
        users = np.repeat(np.arange(len(pairs)), [len(p) for p in pairs])
        w, l = np.array([x for p in pairs for x in p], dtype=np.int64).reshape(-1, 2).T
        bad = (w == l) | (np.minimum(w, l) < 0) | (np.maximum(w, l) >= n_items)
        if bad.any():
            raise ValueError(f"user {users[bad.argmax()]}: pair out of range")
        return cls.from_edges(n_users, n_items, users, encode_pair(w, l, n_items))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreferenceStore):
            return NotImplemented
        return (self.n_users == other.n_users and self.n_items == other.n_items
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.pair_ids, other.pair_ids))

    def prefs_of(self, user: int) -> np.ndarray:
        """One user's pair ids, ascending (a view; do not write to it)."""
        return self.pair_ids[self.indptr[user]:self.indptr[user + 1]]

    def count(self, user: int) -> int:
        return int(self.indptr[user + 1] - self.indptr[user])

    @property
    def total(self) -> int:
        return int(self.pair_ids.size)

    def observed_ids(self) -> np.ndarray:
        """Sorted union of all users' pair ids."""
        return pair_columns(self)[0]


def derive_preferences(dataset) -> PreferenceStore:
    """Turn per-user ratings into strict pairwise preferences.

    For every pair of items a user rated, the higher-rated item wins;
    equal ratings contribute nothing.  All pairs are generated at once:
    with rows ordered by user, then by rating descending, each row wins
    against every later row of its user from the first lower rating on.
    """
    order = np.lexsort((-dataset.ratings, dataset.users))
    users, items, ratings = (a[order] for a in (dataset.users, dataset.items, dataset.ratings))
    new_run = np.diff(users, prepend=-1) != 0
    new_run[1:] |= ratings[1:] != ratings[:-1]
    # this row beats every row of its user from the end of its run of equal ratings
    run_end = np.flatnonzero(np.append(new_run, True))[np.cumsum(new_run)]
    wins = np.searchsorted(users, users, side="right") - run_end
    ends = np.cumsum(wins)
    loser_rows = np.arange(wins.sum()) - np.repeat(ends - wins - run_end, wins)
    pair_ids = np.repeat(items * dataset.n_items, wins)
    pair_ids += items[loser_rows]
    indptr = np.r_[0, ends][np.searchsorted(users, np.arange(dataset.n_users + 1))]
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        pair_ids[a:b].sort()
    return PreferenceStore(dataset.n_users, dataset.n_items, indptr, pair_ids)
