"""Pairwise preferences and their integer encoding.

A preference is an ordered item pair (winner, loser): the user rated the
winner strictly higher than the loser.  Ties produce no preference.  Each
pair is packed into a single integer id

    pair_id = winner * n_items + loser

so the full universe of possible preferences over n_items has
n_items * (n_items - 1) members (the diagonal is invalid).  The encoding
is dense-item-id based, which makes ids cheap to sort and intersect but
means they must be recomputed if the item universe grows.
"""

from dataclasses import dataclass, field

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


def universe_size(n_items: int) -> int:
    """Number of possible ordered preferences over n_items."""
    return n_items * (n_items - 1)


@dataclass
class PreferenceStore:
    """Observed preferences, grouped per user as sorted unique pair ids."""

    n_users: int
    n_items: int
    pair_ids: list = field(default_factory=list)  # one int64 array per user

    def __post_init__(self):
        if len(self.pair_ids) != self.n_users:
            raise ValueError("pair_ids must hold one array per user")

    @classmethod
    def from_pairs(cls, n_users: int, n_items: int, pairs_by_user) -> "PreferenceStore":
        """Build from per-user iterables of (winner, loser) tuples.

        Duplicates collapse; asserting both orientations of the same
        item pair for one user is rejected.
        """
        arrays = []
        for u, pairs in enumerate(pairs_by_user):
            pairs = list(pairs)
            if not pairs:
                arrays.append(np.empty(0, dtype=np.int64))
                continue
            w = np.array([p[0] for p in pairs], dtype=np.int64)
            l = np.array([p[1] for p in pairs], dtype=np.int64)
            if np.any(w == l) or w.min() < 0 or l.min() < 0 or max(w.max(), l.max()) >= n_items:
                raise ValueError(f"user {u}: pair out of range")
            ids = np.unique(encode_pair(w, l, n_items))
            flipped = np.unique(encode_pair(l, w, n_items))
            clash = np.intersect1d(ids, flipped, assume_unique=True)
            if clash.size:
                cw, cl = decode_pair(clash[0], n_items)
                raise PreferenceConflictError(
                    f"user {u}: both orientations of items ({cw}, {cl}) asserted"
                )
            arrays.append(ids)
        return cls(len(arrays), n_items, arrays)

    @property
    def universe(self) -> int:
        return universe_size(self.n_items)

    def count(self, user: int) -> int:
        return int(self.pair_ids[user].size)

    @property
    def total(self) -> int:
        return int(sum(a.size for a in self.pair_ids))

    def observed_ids(self) -> np.ndarray:
        """Sorted union of all users' pair ids."""
        return sorted_unique(np.concatenate([np.empty(0, np.int64), *self.pair_ids]))


def derive_preferences(dataset) -> PreferenceStore:
    """Turn per-user ratings into strict pairwise preferences.

    For every pair of items a user rated, the higher-rated item wins;
    equal ratings contribute nothing.
    """
    arrays = []
    for u in range(dataset.n_users):
        items, ratings = dataset.user_rows(u)
        if items.size < 2:
            arrays.append(np.empty(0, dtype=np.int64))
            continue
        hi, lo = np.triu_indices(items.size, k=1)
        keep = ratings[hi] != ratings[lo]
        hi, lo = hi[keep], lo[keep]
        swap = ratings[hi] < ratings[lo]
        winners = np.where(swap, items[lo], items[hi])
        losers = np.where(swap, items[hi], items[lo])
        arrays.append(np.sort(encode_pair(winners, losers, dataset.n_items)))
    return PreferenceStore(dataset.n_users, dataset.n_items, arrays)
