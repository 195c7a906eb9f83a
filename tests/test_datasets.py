import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_ratings

from prefwalk import (EmptyDatasetError, EmptySplitError, ParseError, SplitSpec,
                      derive_preferences, load_ratings, loads_ratings, upl_split,
                      write_ratings)


def test_parse_two_lines():
    ds = loads_ratings("196\t242\t3\n186\t302\t3")
    assert ds.n_users == 2 and ds.n_items == 2 and ds.n_ratings == 2
    assert list(ds.raw_user_ids) == [196, 186]
    assert list(ds.raw_item_ids) == [242, 302]
    assert list(ds.users) == [0, 1] and list(ds.items) == [0, 1]


def test_duplicate_rating_last_wins():
    ds = loads_ratings("1\t1\t5\n1\t1\t5")
    assert ds.n_ratings == 1
    ds = loads_ratings("1\t1\t5\n2\t2\t1\n1\t1\t2")
    assert ds.n_ratings == 2
    items, ratings = ds.user_rows(0)
    assert list(ratings) == [2.0]


def test_extra_columns_ignored():
    ds = loads_ratings("196\t242\t3\t881250949")
    assert ds.n_ratings == 1 and ds.ratings[0] == 3.0


def test_csv_format():
    ds = loads_ratings("7,9,4.5\n8,9,2", fmt="csv_umr")
    assert ds.n_users == 2 and ds.n_items == 1
    assert ds.ratings[0] == 4.5


def test_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        loads_ratings("1\t2\t3\n1\t2")
    with pytest.raises(ParseError, match="line 1"):
        loads_ratings("a\t2\t3")
    with pytest.raises(EmptyDatasetError):
        loads_ratings("\n\n")
    with pytest.raises(ParseError, match="unknown format"):
        loads_ratings("1\t2\t3", fmt="json")


@pytest.mark.parametrize("line", [
    "1_0\t2\t3",          # an id with a digit separator, which int() reads as 10
    "\u0661\u0662\t2\t3",  # Arabic-Indic digits, which int() reads as 12
    "1\t2\t4_0",          # a rating float() would read as 40.0
])
def test_python_literal_fields_rejected(line):
    with pytest.raises(ParseError, match="line 2"):
        loads_ratings(f"10\t2\t3\n{line}\n")


def test_negative_ids_exponent_ratings_and_free_extra_columns_parse():
    # an ignored column may hold '_' and non-ASCII text
    ds = loads_ratings("-3\t-7\t4e0\tcaf\u00e9_1\n-3\t8\t2.5E-1\n")
    assert list(ds.raw_user_ids) == [-3] and list(ds.raw_item_ids) == [-7, 8]
    assert list(ds.ratings) == [4.0, 0.25]


def test_non_finite_rating_rejected():
    for bad in ("nan", "inf", "-inf", "NaN", "Infinity"):
        with pytest.raises(ParseError, match=r"line 2: rating .* is not finite"):
            loads_ratings(f"1\t1\t4\n1\t2\t{bad}\n1\t3\t2")


_RATING_TEXT = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "x", ""]),
)


def _finite_rating(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _RATING_TEXT),
                min_size=1, max_size=8))
def test_parse_fuzz(rows):
    text = "\n".join(f"{u}\t{i}\t{r}" for u, i, r in rows)
    bad = [ln for ln, (_, _, r) in enumerate(rows, start=1) if not _finite_rating(r)]
    if bad:
        with pytest.raises(ParseError, match=rf"line {bad[0]}\b"):
            loads_ratings(text)
        return
    ds = loads_ratings(text)
    expected = {(u, i): float(r) for u, i, r in rows}  # last occurrence wins
    assert ds.n_ratings == len(expected)
    got = {(int(ds.raw_user_ids[u]), int(ds.raw_item_ids[i])): r
           for u, i, r in zip(ds.users, ds.items, ds.ratings)}
    assert got == expected


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_ratings(tmp_path / "nope.tsv")


def test_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    ds = random_ratings(rng, n_users=5, n_items=6)
    path = tmp_path / "out.tsv"
    write_ratings(ds, path)
    # integer ratings are written as integers
    assert all(line.split("\t")[2].isdigit() for line in path.read_text().splitlines())
    back = load_ratings(path)
    assert back.n_users == ds.n_users and back.n_items == ds.n_items
    assert list(back.raw_user_ids) == list(ds.raw_user_ids)
    for u in range(ds.n_users):
        items, ratings = ds.user_rows(u)
        items2, ratings2 = back.user_rows(u)
        assert list(items) == list(items2)
        assert list(ratings) == list(ratings2)

    # non-integer ratings read back exactly; each user's first two differ
    # only in the 7th significant digit, so 6 digits would tie them
    exact = loads_ratings("1,1,3.141592\n1,2,3.141593\n1,3,0.1\n"
                          "2,1,1234567\n2,2,1234568\n2,3,-2.5e-07\n", fmt="csv_umr")
    write_ratings(exact, path, fmt="csv_umr")
    back = load_ratings(path, fmt="csv_umr")
    assert back.ratings.tolist() == exact.ratings.tolist()
    assert derive_preferences(back) == derive_preferences(exact)
    assert derive_preferences(back).total == 6
    with pytest.raises(ParseError, match="unknown format"):
        write_ratings(exact, path, fmt="json")


def test_user_rows_and_profile_sizes():
    ds = loads_ratings("1\t10\t5\n2\t11\t3\n1\t11\t1")
    items, ratings = ds.user_rows(0)
    assert list(items) == [0, 1] and list(ratings) == [5.0, 1.0]
    assert list(ds.profile_sizes()) == [2, 1]


def _uniform_dataset(n_users, per_user, n_items=None, seed=0):
    rng = np.random.default_rng(seed)
    n_items = n_items or per_user + 5
    lines = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            lines.append(f"{u}\t{i}\t{rng.integers(1, 6)}")
    return loads_ratings("\n".join(lines))


def test_split_excludes_short_profiles():
    # 15 ratings < upl + min_test = 20: the user is dropped from both sides
    ds = _uniform_dataset(2, 15, n_items=30)
    with pytest.raises(EmptySplitError):
        upl_split(ds, SplitSpec(upl=10, min_test=10, seed=1))


def test_split_counts():
    ds = _uniform_dataset(3, 25, n_items=40)
    train, test, kept = upl_split(ds, SplitSpec(upl=10, min_test=10, seed=1))
    assert list(kept) == [0, 1, 2]
    for u in range(3):
        assert train.user_rows(u)[0].size == 10
        assert test.user_rows(u)[0].size == 15
    # id universe is shared, not re-mapped
    assert train.n_users == ds.n_users and train.n_items == ds.n_items


def test_split_partitions_rows():
    ds = _uniform_dataset(4, 12, n_items=20, seed=5)
    train, test, kept = upl_split(ds, SplitSpec(upl=3, min_test=5, seed=9))
    for u in kept:
        all_items = set(ds.user_rows(int(u))[0])
        tr = set(train.user_rows(int(u))[0])
        te = set(test.user_rows(int(u))[0])
        assert tr | te == all_items
        assert not (tr & te)


def test_split_mixed_profile_sizes():
    rng = np.random.default_rng(11)
    lines = []
    sizes = {0: 15, 1: 25, 2: 8}
    for u, size in sizes.items():
        for i in rng.choice(40, size=size, replace=False):
            lines.append(f"{u}\t{i}\t{rng.integers(1, 6)}")
    ds = loads_ratings("\n".join(lines))
    train, test, kept = upl_split(ds, SplitSpec(upl=10, min_test=10, seed=1))
    assert list(kept) == [1]
    assert train.user_rows(0)[0].size == 0 and test.user_rows(0)[0].size == 0
    assert train.user_rows(1)[0].size == 10 and test.user_rows(1)[0].size == 15


def test_split_deterministic_and_rep_dependent():
    ds = _uniform_dataset(6, 20, n_items=30, seed=2)
    spec = SplitSpec(upl=5, min_test=10, seed=42)
    t1, _, _ = upl_split(ds, spec, rep=0)
    t2, _, _ = upl_split(ds, spec, rep=0)
    assert np.array_equal(t1.users, t2.users) and np.array_equal(t1.items, t2.items)
    t3, _, _ = upl_split(ds, spec, rep=1)
    assert not (np.array_equal(t1.users, t3.users) and np.array_equal(t1.items, t3.items))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(upl=0)
    with pytest.raises(ValueError):
        SplitSpec(upl=5, min_test=-1)
    with pytest.raises(ValueError):
        SplitSpec(upl=5, repetitions=0)
