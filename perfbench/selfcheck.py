"""Checks of the benchmark's own parts.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Checks that the generator is
deterministic and keeps the shape the benchmark asserts, that the exact
reference agrees with prefwalk's dense oracle on tiny generated
instances, that the tie-aware ranking checks accept ties and reject real
swaps, that the coverage check lets an unreachable user count either way
and rejects missing coverage, and the self-time arithmetic of the span recorder on hand-built
spans.  Exits 1 on the first failure.
"""

import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gen  # noqa: E402
from check import Reference, check_diagnostics  # noqa: E402
from reference import ExactWalks, ndcg_bounds, topk_matches  # noqa: E402
from run import SHAPE  # noqa: E402
from spans import self_times  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_generator() -> None:
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        a, b, c = (Path(tmp) / name for name in "abc")
        shape = gen.write(a, 7)
        gen.write(b, 7)
        gen.write(c, 8)
        expect(a.read_bytes() == b.read_bytes(), "same seed gives a byte-identical file")
        expect(a.read_bytes() != c.read_bytes(), "another seed gives another file")
    expect((shape["n_users"], shape["n_items"], shape["n_ratings"])
           == (gen.N_USERS, gen.N_ITEMS, gen.DEFAULT_RATINGS),
           "943 users x 1682 items, 59,466 ratings")
    expect(shape["profile_min"] >= gen.MIN_PROFILE, "every user has at least 20 ratings")
    expect(shape["profile_max"] > 10 * shape["profile_median"], "profile sizes are heavy-tailed")
    expect(all(h > 0 for h in shape["rating_hist"]), "every rating value 1-5 occurs")
    lo, hi = SHAPE["preferences"]
    expect(lo <= shape["preferences"] <= hi,
           f"{shape['preferences']} preferences within the asserted range")


def check_reference() -> None:
    from prefwalk import derive_preferences, loads_ratings
    from prefwalk.reference import dense_reference_ranking
    worst = 0.0
    for seed in range(5):
        users, items, ratings = gen.generate(seed, 60, n_users=10, n_items=12, min_profile=4)
        text = "".join(f"{u}\t{i}\t{r}\n" for u, i, r in zip(users, items, ratings))
        ds = loads_ratings(text)
        store = derive_preferences(ds)
        exact = ExactWalks(ds.users, ds.items, ds.ratings, ds.n_users, ds.n_items)
        expect(np.array_equal(exact.observed, store.observed_ids()),
               f"tiny instance {seed}: same observed preferences as prefwalk")
        for u in range(ds.n_users):
            if store.count(u) == 0:
                continue
            dense = dense_reference_ranking(store, u, tol=1e-14, max_iter=3000)
            sim, con = exact.user_walk(u)
            worst = max(worst, np.abs(sim - dense.similarities).max(),
                        np.abs(con - dense.concordances).max(),
                        np.abs(exact.item_scores(con) - dense.scores).max())
    expect(worst < 1e-10, f"exact walks match the dense oracle (max error {worst:.2e})")


def check_ranking_checks() -> None:
    scores = np.array([0.9, 0.5, 0.5 + 1e-9, 0.7, 0.1])
    expect(topk_matches([0, 3, 2], scores, [], 1e-6), "a top-k ordered by score passes")
    expect(topk_matches([0, 3, 1], scores, [], 1e-6), "a tie within tolerance passes")
    expect(not topk_matches([3, 0, 2], scores, [], 1e-6), "a real swap fails")
    expect(topk_matches([0, 1, 2], scores, [3], 1e-6), "an excluded item is skipped")
    expect(not topk_matches([0, 3, 2], scores, [3], 1e-6), "an excluded item fails")
    gains = {1: 5.0, 2: 1.0}
    lo, hi = ndcg_bounds(scores, gains, 3, [], 1e-6)
    expect(lo < hi, "ndcg bounds span the tied pair's two orders")


def check_coverage_check() -> None:
    from prefwalk import loads_ratings
    # users 0 and 1 share preferences; user 2 shares none, so user 0's
    # exact walk gives it similarity 0 and its preference concordance 0
    ds = loads_ratings("0\t0\t5\n0\t1\t3\n0\t2\t1\n1\t0\t4\n1\t1\t2\n"
                       "2\t3\t5\n2\t4\t1\n")
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        ref = Reference(Path(tmp) / "ref.npz", lambda: ds)
        sim_lo, sim_hi, con_lo, con_hi = ref.fractions(0)

        def passes(sim, con):
            return not check_diagnostics(ref, [{"user": 0, "similarity_fraction": sim,
                                                 "concordance_fraction": con,
                                                 "pref_mass_fraction": 1.0}])
    expect((sim_lo, sim_hi) == (0.5, 1.0), "the unreachable user may count either way")
    expect(passes(1.0, con_hi) and passes(0.5, con_lo),
           "coverage with or without the unreachable user passes")
    expect(not passes(0.0, con_hi), "missing similarity coverage fails")
    expect(not passes(1.0, 0.0), "missing concordance coverage fails")


def check_self_time() -> None:
    # 0: [0, 10] with children 1: [1, 3], 2: [2, 5] (overlapping), 3: [8, 12]
    # (clipped to 10); 4: [3, 4] is a grandchild under 2; 5: [20, 21] a root.
    spans = [(0, 10, None), (1, 3, 0), (2, 5, 0), (8, 12, 0), (3, 4, 2), (20, 21, None)]
    got = self_times(spans)
    expect(got == [10 - (4 + 2), 2, 3 - 1, 4, 1, 1], f"self times {got}")


if __name__ == "__main__":
    check_self_time()
    check_ranking_checks()
    check_coverage_check()
    check_reference()
    check_generator()
