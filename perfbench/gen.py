"""Seeded synthetic ratings with the shape of MovieLens-100K.

    python3 perfbench/gen.py --seed 1 --ratings 59466 --out ratings.tsv

writes `user<TAB>item<TAB>rating` lines (raw ids from 1) and prints the
dataset shape as one JSON object, which is also stored next to the file
as `<out>.shape.json`.  The same seed and rating count give a
byte-identical file.

Shape: 943 users x 1682 items, at least 20 ratings per user with a
heavy-tailed (lognormal) profile size, Zipf-like item popularity and
integer ratings 1-5 drawn from a global mean plus user and item biases,
so ties occur as in real data.  Profile sizes are stratified quantiles
of the size distribution, so the total work (pairs per profile) stays
nearly the same from seed to seed while which user gets which size,
which items and which ratings all follow the seed.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

N_USERS = 943
N_ITEMS = 1682
MIN_PROFILE = 20
DEFAULT_RATINGS = 59_466

SIZE_SIGMA = 1.68      # lognormal shape of the extra ratings beyond MIN_PROFILE
ZIPF_EXPONENT = 0.85   # item popularity ~ 1 / (rank + ZIPF_OFFSET) ** ZIPF_EXPONENT
ZIPF_OFFSET = 8.0
RATING_MEAN = 3.55
USER_BIAS_SD = 0.45
ITEM_BIAS_SD = 0.45
NOISE_SD = 0.85


def profile_sizes(rng: np.random.Generator, n_ratings: int, n_users: int, n_items: int,
                  min_profile: int) -> np.ndarray:
    """Per-user rating counts summing exactly to n_ratings."""
    extra_total = n_ratings - min_profile * n_users
    if extra_total < 0 or n_ratings > n_users * (n_items // 2):
        raise ValueError(f"{n_ratings} ratings do not fit {n_users} users x {n_items} items")
    strata = (np.arange(n_users) + rng.random(n_users)) / n_users
    weight = np.exp(SIZE_SIGMA * ndtri(strata))
    cap = n_items // 2 - min_profile
    extra = np.zeros(n_users)
    free = np.ones(n_users, dtype=bool)
    budget = float(extra_total)
    for _ in range(20):  # scale to the budget, capping the largest profiles
        extra[free] = weight[free] * budget / weight[free].sum()
        over = free & (extra > cap)
        if not over.any():
            break
        extra[over] = cap
        free &= ~over
        budget = extra_total - extra[~free].sum()
    sizes = np.floor(extra).astype(np.int64)
    short = extra_total - int(sizes.sum())
    sizes[np.argsort(sizes - extra)[:short]] += 1  # largest remainders
    return rng.permutation(sizes + min_profile)


def generate(seed: int, n_ratings: int = DEFAULT_RATINGS, n_users: int = N_USERS,
             n_items: int = N_ITEMS, min_profile: int = MIN_PROFILE):
    """(users, items, ratings) arrays with raw ids starting at 1, in file
    order.  The size arguments exist for tiny instances in selfcheck.py."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_ratings]))
    sizes = profile_sizes(rng, n_ratings, n_users, n_items, min_profile)
    popularity = 1.0 / (np.arange(n_items) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    popularity = popularity[rng.permutation(n_items)]
    popularity /= popularity.sum()
    # popular items tend to be rated higher, as in real data
    pop_z = (np.log(popularity) - np.log(popularity).mean()) / np.log(popularity).std()
    item_bias = ITEM_BIAS_SD * (0.5 * pop_z + math.sqrt(0.75) * rng.standard_normal(n_items))
    user_bias = USER_BIAS_SD * rng.standard_normal(n_users)

    users = np.repeat(np.arange(n_users), sizes)
    items = np.concatenate([rng.choice(n_items, size=int(k), replace=False, p=popularity)
                            for k in sizes])
    _cover_all_items(rng, users, items, n_items)
    latent = (RATING_MEAN + user_bias[users] + item_bias[items]
              + NOISE_SD * rng.standard_normal(users.size))
    ratings = np.clip(np.rint(latent), 1, 5).astype(np.int64)
    order = rng.permutation(users.size)
    return users[order] + 1, items[order] + 1, ratings[order]


def _cover_all_items(rng, users, items, n_items: int) -> None:
    """Give every never-rated item one rating, taken from an item rated
    more than once, so every item appears in the file."""
    counts = np.bincount(items, minlength=n_items)
    for item in np.flatnonzero(counts == 0):
        while True:
            row = int(rng.integers(items.size))
            if counts[items[row]] > 1 and not np.any(items[users == users[row]] == item):
                break
        counts[items[row]] -= 1
        items[row] = item
        counts[item] += 1


def encode(users, items, ratings) -> bytes:
    lines = np.char.add(np.char.add(np.char.add(np.char.add(
        users.astype(str), "\t"), items.astype(str)), "\t"), ratings.astype(str))
    return ("\n".join(lines.tolist()) + "\n").encode("ascii")


def shape_of(users, items, ratings, blob: bytes) -> dict:
    """Shape statistics of a generated file, computed directly from the
    generator's arrays (independently of the prefwalk package)."""
    u = users - 1
    sizes = np.bincount(u)
    per_value = np.stack([np.bincount(u[ratings == r], minlength=sizes.size)
                          for r in range(1, 6)])
    untied = sizes * (sizes - 1) // 2 - (per_value * (per_value - 1) // 2).sum(axis=0)
    return {
        "n_users": int(np.unique(users).size),
        "n_items": int(np.unique(items).size),
        "n_ratings": int(users.size),
        "profile_min": int(sizes.min()),
        "profile_median": float(np.median(sizes)),
        "profile_max": int(sizes.max()),
        "users_ge_40": int((sizes >= 40).sum()),
        "rating_hist": [int((ratings == r).sum()) for r in range(1, 6)],
        "preferences": int(untied.sum()),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def write(path, seed: int, n_ratings: int = DEFAULT_RATINGS) -> dict:
    """Write the ratings file and its shape sidecar; returns the shape."""
    users, items, ratings = generate(seed, n_ratings)
    blob = encode(users, items, ratings)
    shape = {"seed": seed, **shape_of(users, items, ratings, blob)}
    path = Path(path)
    path.write_bytes(blob)
    Path(f"{path}.shape.json").write_text(json.dumps(shape, indent=1) + "\n")
    return shape


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ratings", type=int, default=DEFAULT_RATINGS)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(write(args.out, args.seed, args.ratings)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
