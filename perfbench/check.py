"""Check a workload's outputs against the exact reference (reference.py).

Reference results are cached per workload and dataset digest under the
benchmark's cache directory, so a seed seen before costs one file read.
"""

import os

import numpy as np

from reference import ExactWalks, ndcg, ndcg_bounds, ranking, topk_matches

SCORE_TOL = 1e-6   # per-item score error that fails a user; also the tie tolerance
NONZERO_EPS = 1e-15
# Walk-1 state values within STATE_TOL of the NONZERO_EPS coverage threshold
# may count either way.  Exact values are 0 (a component the user cannot
# reach) or above 1e-8; the 100-sweep iterate leaves about 5e-11 of its
# uniform start on an unreachable component.
STATE_TOL = 1e-9


class Reference:
    """Lazily built exact walks on one ratings set, with an on-disk cache."""

    def __init__(self, cache_path, dataset_fn):
        self.path = cache_path
        self._dataset_fn = dataset_fn  # () -> RatingsDataset the walks run on
        self._walks = None
        try:
            with np.load(cache_path) as z:
                self.cache = dict(z)
        except (OSError, ValueError):
            self.cache = {}
        self.dirty = False

    @property
    def walks(self) -> ExactWalks:
        if self._walks is None:
            ds = self._dataset_fn()
            self._walks = ExactWalks(ds.users, ds.items, ds.ratings, ds.n_users, ds.n_items)
        return self._walks

    def get(self, key: str, compute):
        if key not in self.cache:
            self.cache[key] = np.asarray(compute())
            self.dirty = True
        return self.cache[key]

    def scores(self, user: int) -> np.ndarray:
        return self.get(f"scores{user}", lambda: self.walks.scores(user))

    def fractions(self, user: int) -> np.ndarray:
        """Lowest and highest similarity coverage, then the same for
        concordance coverage, that a walk-1 state within STATE_TOL of the
        user's exact one gives."""
        def compute():
            w = self.walks
            sim, con = w.user_walk(user)
            active = np.flatnonzero(np.diff(w.incidence.indptr) > 0)
            others = active[active != user]
            pairs = w.n_items * (w.n_items - 1)
            return [int((v > NONZERO_EPS + sign * STATE_TOL).sum()) / n
                    for v, n in ((sim[others], others.size), (con, pairs))
                    for sign in (1, -1)]
        return self.get(f"coverage{user}", compute)

    def save(self) -> None:
        """Write the cache whole under a temporary name, then rename it, so
        an interrupted run never leaves a truncated file behind."""
        if self.dirty:
            tmp = f"{self.path}.tmp"
            with open(tmp, "wb") as fh:
                np.savez(fh, **self.cache)
            os.replace(tmp, self.path)


def check_users(ref: Reference, outputs: dict, exclude_of) -> tuple:
    """(score_err_max, failed user ids) over every output user."""
    err_max, failed = 0.0, []
    for key, out in outputs.items():
        user = int(key)
        want = ref.scores(user)
        got = np.asarray(out["scores"])
        err = float(np.max(np.abs(got - want))) if got.shape == want.shape else np.inf
        err_max = max(err_max, err)
        ok = err <= SCORE_TOL
        if out["items"]:
            ok = ok and topk_matches(out["items"], want, exclude_of(user), SCORE_TOL)
        if not ok:
            failed.append(user)
    return err_max, failed


def check_diagnostics(ref: Reference, diagnostics: list) -> list:
    """Users whose reported coverage is outside what the exact walks allow.
    At the fixed point every off-diagonal pair carries walk-2 mass."""
    failed = []
    for d in diagnostics:
        sim_lo, sim_hi, con_lo, con_hi = ref.fractions(d["user"])
        if not (sim_lo - 1e-12 <= d["similarity_fraction"] <= sim_hi + 1e-12
                and con_lo - 1e-12 <= d["concordance_fraction"] <= con_hi + 1e-12
                and d["pref_mass_fraction"] == 1.0):
            failed.append(d["user"])
    return failed


def reference_ndcg(ref: Reference, train, test, kept, cutoffs) -> np.ndarray:
    """Mean NDCG per cutoff over kept users with a strict preference:
    rows (exact ranking, lowest, highest) where the last two range over
    rankings that differ only by ties within SCORE_TOL."""
    def compute():
        walks, rows = ref.walks, []
        kmax = max(cutoffs)
        for u in kept:
            rated, _ = train.user_rows(int(u))
            try:
                scores = walks.scores(int(u))
            except ValueError:  # no strict preference: skipped, as by the protocol
                continue
            items = ranking(scores, kmax, rated)
            test_items, test_ratings = test.user_rows(int(u))
            gains = {int(i): float(r) for i, r in zip(test_items, test_ratings)}
            rows.append([[ndcg(items, gains, k),
                          *ndcg_bounds(scores, gains, k, rated, SCORE_TOL)] for k in cutoffs])
        return np.mean(rows, axis=0).T
    return ref.get("ndcg", compute)
