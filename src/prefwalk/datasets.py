"""Ratings datasets: parsing, id mapping, and per-user train/test splits.

Input files are flat text, one rating per line: user, item, rating,
optionally followed by extra columns (e.g. a timestamp) which are
ignored.  Raw user/item ids are arbitrary integers that fit in int64;
they are mapped to dense 0-based ids in order of first appearance so
graph code can use them as array indices.  Duplicate (user, item) lines
keep the last rating seen.  Ratings must be finite numbers.  Ids and
ratings are plain ASCII numbers: no `_` separators, no non-ASCII digits.

Input that is all ASCII and holds no `_` is read by numpy's C reader
(`np.loadtxt`), and the duplicates and id maps are then settled by
sorting.  Whatever that reader refuses or warns about, an empty result
and any non-finite rating send the input to the Python line loop
instead, which is also the only path for other input; it reports each
error with its line number.
"""

import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDatasetError, EmptySplitError, ParseError

FORMAT_SEPS = {"tsv_umr": "\t", "csv_umr": ","}
_INT64 = np.iinfo(np.int64)
_COLUMNS = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64)])


@dataclass(eq=False)
class RatingsDataset:
    """Ratings as parallel arrays over dense user/item ids."""

    users: np.ndarray    # int64, dense user id per rating
    items: np.ndarray    # int64, dense item id per rating
    ratings: np.ndarray  # float64
    raw_user_ids: np.ndarray  # dense id -> raw id
    raw_item_ids: np.ndarray

    @property
    def n_users(self) -> int:
        return int(self.raw_user_ids.size)

    @property
    def n_items(self) -> int:
        return int(self.raw_item_ids.size)

    @property
    def n_ratings(self) -> int:
        return int(self.users.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatingsDataset):
            return NotImplemented
        return (self.n_users == other.n_users and self.n_items == other.n_items
                and self.n_ratings == other.n_ratings
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("users", "items", "ratings", "raw_user_ids",
                                     "raw_item_ids")))

    @cached_property
    def _user_index(self):
        order = np.argsort(self.users, kind="stable")
        starts = np.searchsorted(self.users[order], np.arange(self.n_users + 1))
        return order, starts

    def user_rows(self, user: int):
        """(items, ratings) of one user, in file order."""
        order, starts = self._user_index
        rows = order[starts[user]:starts[user + 1]]
        return self.items[rows], self.ratings[rows]

    def profile_sizes(self) -> np.ndarray:
        """Number of ratings per user."""
        return np.bincount(self.users, minlength=self.n_users)

    def subset(self, row_mask: np.ndarray) -> "RatingsDataset":
        """Row-filtered copy sharing the id maps (users/items keep their ids)."""
        rows = np.flatnonzero(row_mask)
        return RatingsDataset(
            self.users[rows], self.items[rows], self.ratings[rows],
            self.raw_user_ids, self.raw_item_ids,
        )


def _parse_stream(stream, sep: str, name: str) -> RatingsDataset:
    by_pair: dict = {}
    for ln, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) < 3:
            raise ParseError(f"{name}, line {ln}: expected at least 3 fields, got {len(parts)}")
        if ("_" in line or not line.isascii()) and any(
                "_" in f or not f.isascii() for f in parts[:3]):  # int() reads 1_0 as 10
            raise ParseError(f"{name}, line {ln}: ids and ratings must be plain ASCII numbers")
        try:
            u, i, r = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{name}, line {ln}: {exc}") from None
        if not math.isfinite(r):
            raise ParseError(f"{name}, line {ln}: rating {parts[2]!r} is not finite")
        if not (_INT64.min <= u <= _INT64.max and _INT64.min <= i <= _INT64.max):
            raise ParseError(f"{name}, line {ln}: ids must fit in a signed 64-bit integer")
        by_pair[(u, i)] = r  # last occurrence wins, first-seen order kept
    if not by_pair:
        raise EmptyDatasetError(f"{name}: no ratings")

    umap: dict = {}
    imap: dict = {}
    users = np.empty(len(by_pair), dtype=np.int64)
    items = np.empty(len(by_pair), dtype=np.int64)
    ratings = np.empty(len(by_pair), dtype=np.float64)
    for row, ((u, i), r) in enumerate(by_pair.items()):
        users[row] = umap.setdefault(u, len(umap))
        items[row] = imap.setdefault(i, len(imap))
        ratings[row] = r
    return RatingsDataset(
        users, items, ratings,
        np.fromiter(umap, dtype=np.int64, count=len(umap)),
        np.fromiter(imap, dtype=np.int64, count=len(imap)),
    )


def _first_seen(raw: np.ndarray):
    """Dense ids of `raw` in order of first appearance, and the raw id of each."""
    distinct, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first)
    dense = np.empty_like(order)
    dense[order] = np.arange(order.size)
    return dense[inverse], distinct[order]


def _parse_table(data: bytes, sep: str):
    """`data` parsed by numpy's C reader, or None where it must go through
    _parse_stream: input that is not plain ASCII numbers, that the reader
    refuses or warns about, or that holds no rating or a non-finite one."""
    if not data.isascii() or b"_" in data:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. empty input; ints read through float on older numpy
        try:
            table = np.loadtxt(io.BytesIO(data), dtype=_COLUMNS, delimiter=sep, comments=None,
                               usecols=(0, 1, 2), ndmin=1)
        except (ValueError, Warning):
            return None
    if table.size == 0 or not np.isfinite(table["rating"]).all():
        return None
    users, raw_users = _first_seen(table["user"])
    items, raw_items = _first_seen(table["item"])
    # one row per (user, item), where it first appears, holding its last rating
    pair = users * raw_items.size + items
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    starts = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    first, last = order[starts], order[np.r_[starts[1:], order.size] - 1]
    rows = np.argsort(first)
    first, last = first[rows], last[rows]
    return RatingsDataset(users[first], items[first], table["rating"][last],
                          raw_users, raw_items)


def _separator(fmt: str) -> str:
    if fmt not in FORMAT_SEPS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {sorted(FORMAT_SEPS)}")
    return FORMAT_SEPS[fmt]


def load_ratings(path, fmt: str = "tsv_umr") -> RatingsDataset:
    """Parse a ratings file.  fmt is one of 'tsv_umr' or 'csv_umr'."""
    sep = _separator(fmt)
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_table(data, sep)
    if parsed is not None:
        return parsed
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    # newline=None splits lines at \r, \n and \r\n, as a file opened as text does
    return _parse_stream(io.StringIO(text, newline=None), sep, str(path))


def loads_ratings(text: str, fmt: str = "tsv_umr") -> RatingsDataset:
    """Parse ratings from a string (mainly for tests).  Unlike a file's,
    its lines end only at a newline, never at a lone carriage return."""
    sep = _separator(fmt)
    parsed = _parse_table(text.encode("utf-8", "surrogatepass"), sep)
    return parsed if parsed is not None else _parse_stream(io.StringIO(text), sep, "<string>")


def write_ratings(dataset: RatingsDataset, path, fmt: str = "tsv_umr") -> None:
    """Write ratings with their raw ids, each in the shortest form that reads back exactly."""
    sep = _separator(fmt)
    raw_u = dataset.raw_user_ids[dataset.users]
    raw_i = dataset.raw_item_ids[dataset.items]
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, r in zip(raw_u, raw_i, dataset.ratings):
            fh.write(f"{u}{sep}{i}{sep}{np.format_float_positional(r, trim='-')}\n")


@dataclass
class SplitSpec:
    """Per-user split: keep exactly `upl` train ratings, rest become test.

    Users with fewer than upl + min_test ratings are dropped from both
    sides (they keep their ids, so they appear as isolated graph nodes).
    """

    upl: int
    min_test: int = 10
    seed: int = 0
    repetitions: int = 5

    def __post_init__(self):
        if self.upl < 1:
            raise ValueError("upl must be >= 1")
        if self.min_test < 0:
            raise ValueError("min_test must be >= 0")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def check_split(dataset: RatingsDataset, spec: SplitSpec) -> None:
    """Raise EmptySplitError unless `upl_split` would keep some user."""
    need = spec.upl + spec.min_test
    if not np.any(dataset.profile_sizes() >= need):
        raise EmptySplitError(f"no user has >= {need} ratings (upl={spec.upl}, "
                              f"min_test={spec.min_test})")


def upl_split(dataset: RatingsDataset, spec: SplitSpec, rep: int = 0):
    """One train/test split.  Returns (train, test, kept_users).

    Sampling is uniform without replacement, seeded from (spec.seed,
    spec.upl, rep) so every repetition is reproducible in isolation.
    """
    check_split(dataset, spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.upl, rep]))
    order, starts = dataset._user_index
    train_mask = np.zeros(dataset.n_ratings, dtype=bool)
    test_mask = np.zeros(dataset.n_ratings, dtype=bool)
    kept = []
    for u in range(dataset.n_users):
        rows = order[starts[u]:starts[u + 1]]
        if rows.size < spec.upl + spec.min_test:
            continue
        pick = rng.choice(rows.size, size=spec.upl, replace=False)
        chosen = np.zeros(rows.size, dtype=bool)
        chosen[pick] = True
        train_mask[rows[chosen]] = True
        test_mask[rows[~chosen]] = True
        kept.append(u)
    return dataset.subset(train_mask), dataset.subset(test_mask), np.array(kept, dtype=np.int64)
