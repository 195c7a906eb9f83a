"""Ranking quality protocol and structural diagnostics.

Ranking solves both walks exactly: the first in user space, against an
LU factor (dense where the user coupling is dense, else sparse) and
user-space matrices that the graph's operators build once and keep,
projected straight onto the item poles; the second by one score formula
on those pole marginals.  Neither depends on max_iter, and per user
the work is O(n_users + n_items) beside the solve: ranking builds no
vector over preferences or pairs and computes no residual.  Diagnostics
take both walks' full state from `solve_user_walk` and `solve_item_walk`.
It runs on blocks of users (`rank_block`): one solve with a column per
user, the score formula along those columns, and a row-wise top-k.
`rank_items_for_user` is the block of one, and gives each user the
same scores as any block holding them up to rounding: the factor's
solve may sum in another order for another block width.

The protocol: for each requested per-user profile size, repeatedly
split the dataset (keeping that many train ratings per user, the rest
as test), rank each kept user's unseen items, and average NDCG at the
requested cutoffs over users; repetitions differ only in the split
seed.  Kept users are ranked and scored EVAL_BLOCK at a time, the
blocks spread over threads: both factors' solves (SuperLU's and
LAPACK's getrs) and NumPy's array kernels release the GIL, and each
block writes only its own users' rows, so the report does not depend
on the thread count.  `run_evaluation(jobs=)` sets that count.  The
CLI passes none (`evaluate --jobs` is a usage error): it comes from the
CPUs the process may use, shared with BLAS's own threads.  Reported std
is the population std over repetition means.

Diagnostics probe how far each walk's mass actually spreads: the
fraction of users / preference pairs reached, and how many distinct
value levels the reached mass forms (two values count as one level when
they agree to 12 significant digits).
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .datasets import RatingsDataset, SplitSpec, upl_split
from .graph import UserPrefGraph, UserPrefOperators, connectivity_report, user_pref_operators
from .item_walk import ItemWalkConfig, ScoredItems, exclusion_mask, item_scores, topk_rows
from .preferences import derive_preferences, universe_size
from .user_walk import UserWalkConfig, solve_user_walk, solve_user_walks
from .walk_state import build_restart, check_pole_operators, solve_item_walk

NONZERO_EPS = 1e-15
LEVEL_DIGITS = 12


@dataclass(eq=False)
class RankOutcome:
    items: np.ndarray
    scored: ScoredItems


@dataclass(eq=False)
class RankedBlock:
    """The scores and top-k for a block of users, one column (of the
    scores) or row (of `items`) per user."""

    scored: ScoredItems  # n_items x m
    items: np.ndarray    # m x min(k, n_items); row r's ranking is its first counts[r]
    counts: np.ndarray


def rank_block(ops: UserPrefOperators, targets, k: int, excluded: np.ndarray,
               walk1: UserWalkConfig | None = None,
               walk2: ItemWalkConfig | None = None) -> RankedBlock:
    """Solve both walks exactly for a block of warm users and rank their
    items, leaving out those marked in the (m x n_items) excluded mask."""
    scored = item_scores(solve_user_walks(ops, targets, walk1).concordance_poles, walk2)
    items, counts = topk_rows(scored.scores.T, k, excluded)
    return RankedBlock(scored, items, counts)


def rank_items_for_user(ops: UserPrefOperators, pole_to_pref, pref_to_pole,
                        target: int, k: int = 10, exclude=(),
                        walk1: UserWalkConfig | None = None,
                        walk2: ItemWalkConfig | None = None) -> RankOutcome:
    """Solve both walks exactly for one user and rank their unseen items:
    `rank_block` for a block of one.  Of the pole operators, only their
    item count is read."""
    check_pole_operators(pole_to_pref, pref_to_pole, ops.n_items)
    block = rank_block(ops, [target], k, exclusion_mask(ops.n_items, [exclude]),
                       walk1, walk2)
    scored = ScoredItems(block.scored.scores[:, 0], block.scored.defined[:, 0])
    return RankOutcome(block.items[0, :block.counts[0]], scored)


def ndcg_at_k(recommended, test_ratings: dict, k: int) -> float:
    """NDCG with exponential gain and log2 position discount.

    test_ratings maps item id -> rating; an item contributes gain
    2**rating - 1 at discount log2(position + 1) (1-based positions).
    Items missing from the map gain nothing.  The ideal ordering is the
    user's test items sorted by rating, truncated at k.
    """
    dcg = 0.0
    for pos, item in enumerate(recommended[:k]):
        rel = test_ratings.get(int(item), 0.0)
        if rel:
            dcg += (2.0 ** rel - 1.0) / math.log2(pos + 2)
    idcg = 0.0
    for pos, rel in enumerate(sorted(test_ratings.values(), reverse=True)[:k]):
        idcg += (2.0 ** rel - 1.0) / math.log2(pos + 2)
    return dcg / idcg if idcg > 0 else 0.0


def _prefix_dcg(rel: np.ndarray) -> np.ndarray:
    """Per row, the DCG of every prefix of its gains: column j sums the first j."""
    gain = (2.0 ** rel - 1.0) / np.log2(np.arange(2, rel.shape[1] + 2))
    return np.hstack([np.zeros((rel.shape[0], 1)), np.cumsum(gain, axis=1)])


def ndcg_rows(items: np.ndarray, counts: np.ndarray, test: sparse.csr_matrix,
              cutoffs) -> np.ndarray:
    """`ndcg_at_k` for a block of users at once, one row per user and one
    column per cutoff.  Row r of `items` holds user r's ranking in its
    first counts[r] entries; row r of `test` holds their test ratings."""
    m, width = items.shape
    cutoffs = np.asarray(cutoffs, dtype=np.int64)
    rel = np.take_along_axis(test.toarray(), items, axis=1)
    rel[np.arange(width) >= counts[:, None]] = 0.0
    # each row's test ratings, highest first, then no gain past its last
    rows = np.repeat(np.arange(m), np.diff(test.indptr))
    pos = np.arange(rows.size) - test.indptr[rows]
    depth = int(cutoffs.max(initial=0))
    ideal = np.full((m, max(depth, pos.max(initial=-1) + 1)), np.inf)
    ideal[rows, pos] = -test.data
    ideal.sort(axis=1)
    ideal = -ideal[:, :depth]
    ideal[np.isinf(ideal)] = 0.0
    dcg = _prefix_dcg(rel)[:, np.minimum(cutoffs, width)]
    idcg = _prefix_dcg(ideal)[:, cutoffs]
    return np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0)


# -- evaluation protocol ----------------------------------------------------

# Users ranked together in `run_evaluation`.  Larger blocks share more
# per-call overhead but hold more n_items x block arrays at once.  On an
# ML-100K-shaped upl=10 split the process peaks at 75 MB ranking one user
# at a time, 81 MB with blocks of 32, 85 MB with 64 and 167 MB with all 943.
EVAL_BLOCK = 32


@dataclass
class NdcgCell:
    mean: float
    std: float
    per_rep: list


@dataclass
class EvalReport:
    upls: list
    cutoffs: list
    repetitions: int
    cells: dict = field(default_factory=dict)            # (upl, cutoff) -> NdcgCell
    evaluated_users: dict = field(default_factory=dict)  # (upl, rep) -> count
    cold_skipped: dict = field(default_factory=dict)     # (upl, rep) -> count
    runtime_s: dict = field(default_factory=dict)        # upl -> seconds
    config: dict = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [f"{'upl':>5} {'cutoff':>6} {'mean':>8} {'std':>8}  per-repetition"]
        for upl in self.upls:
            for k in self.cutoffs:
                cell = self.cells[(upl, k)]
                reps = ", ".join(f"{v:.4f}" for v in cell.per_rep)
                lines.append(f"{upl:>5} {k:>6} {cell.mean:>8.4f} {cell.std:>8.4f}  {reps}")
        return "\n".join(lines)

    def to_tsv(self) -> str:
        lines = [f"# {key}={val}" for key, val in sorted(self.config.items())]
        lines.append("# std is population std over repetition means")
        for upl in self.upls:
            cold = [self.cold_skipped[(upl, r)] for r in range(self.repetitions)]
            if any(cold):
                lines.append(f"# upl={upl} cold_skipped={cold}")
        lines.append("upl\tcutoff\tmean\tstd\tn_users\truntime_ms\t" + "\t".join(
            f"rep{r}" for r in range(self.repetitions)))
        for upl in self.upls:
            users = [self.evaluated_users[(upl, r)] for r in range(self.repetitions)]
            n_users = float(np.mean(users))
            ms = self.runtime_s[upl] * 1e3
            for k in self.cutoffs:
                cell = self.cells[(upl, k)]
                reps = "\t".join(f"{v:.6f}" for v in cell.per_rep)
                lines.append(f"{upl}\t{k}\t{cell.mean:.6f}\t{cell.std:.6f}\t"
                             f"{n_users:g}\t{ms:.0f}\t{reps}")
        return "\n".join(lines) + "\n"


# what OpenBLAS, the BLAS that numpy and scipy wheels ship, reads for
# its thread count, in its order
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _default_jobs() -> int:
    """The CPUs this process may use, divided by the threads each BLAS
    call may use, so that the blocks' threads and BLAS's never ask for
    more cores than there are.  Unless an environment variable caps it,
    OpenBLAS uses every CPU, and its idle threads spin for a while after
    each call (the factor's solve makes such calls), on the cores the
    blocks' threads need: uncapped, evaluation runs on one thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cpus // blas)


def _ndcg_blocks(pool: ThreadPoolExecutor, ops: UserPrefOperators, warm: np.ndarray,
                 seen: np.ndarray, gains: sparse.csr_matrix, cutoffs: list,
                 walk1: UserWalkConfig, walk2: ItemWalkConfig) -> np.ndarray:
    """NDCG of each warm user (a row) at each cutoff (a column), ranked
    EVAL_BLOCK users at a time on the pool's threads, leaving out the
    items each has seen (the rows of the users x items mask `seen`).
    Each block writes only its own rows and returns nothing, so only the
    blocks in flight hold arrays."""
    # built here, once: the threads only read the factor and `user_space`
    ops.user_walk_factor(walk1.alpha)
    per_user = np.empty((warm.size, len(cutoffs)))

    def score(lo):
        users = warm[lo:lo + EVAL_BLOCK]
        block = rank_block(ops, users, max(cutoffs), seen[users], walk1, walk2)
        per_user[lo:lo + users.size] = ndcg_rows(block.items, block.counts, gains[users],
                                                 cutoffs)

    for _ in pool.map(score, range(0, warm.size, EVAL_BLOCK)):  # raises a block's error
        pass
    return per_user


def run_evaluation(dataset: RatingsDataset, upls, cutoffs=(1, 3, 5, 10),
                   repetitions: int = 5, seed: int = 0, min_test: int = 10,
                   walk1: UserWalkConfig | None = None,
                   walk2: ItemWalkConfig | None = None,
                   jobs: int | None = None, user_sample: int | None = None,
                   progress=None) -> EvalReport:
    """Full protocol over several profile sizes.

    user_sample, when set, evaluates only that many kept users per
    repetition (sampled reproducibly) — a cheap preview of the full run.
    Each repetition ranks its warm kept users EVAL_BLOCK at a time
    (`rank_block`) and scores the block's NDCG at once (`ndcg_rows`).
    jobs is the number of threads the blocks run on, at most jobs blocks
    in flight at once; the report is the same for any jobs.  By default
    it is the number of CPUs this process may use, divided by the
    threads each BLAS call may use (`_default_jobs`): one thread per CPU
    with OPENBLAS_NUM_THREADS=1, one thread with BLAS uncapped.
    """
    upls = list(upls)
    cutoffs = list(cutoffs)
    if not cutoffs or min(cutoffs) < 1:
        raise ValueError(f"cutoffs must be at least 1, got {cutoffs}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if user_sample is not None and user_sample < 0:
        raise ValueError(f"user_sample must be at least 0, got {user_sample}")
    if jobs is None:
        jobs = _default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    walk1 = walk1 or UserWalkConfig()
    walk2 = walk2 or ItemWalkConfig()
    report = EvalReport(upls, cutoffs, repetitions, config={
        "alpha": walk1.alpha, "beta": walk2.beta, "tol": walk1.tol,
        "seed": seed, "min_test": min_test,
        "repetitions": repetitions, "user_sample": user_sample,
        "cutoffs": ",".join(str(k) for k in cutoffs),
    })
    # a split keeps at most every user, or the sample: no more blocks than that
    most_kept = dataset.n_users if user_sample is None else min(dataset.n_users, user_sample)
    workers = max(1, min(jobs, math.ceil(most_kept / EVAL_BLOCK)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for upl in upls:
            t0 = time.perf_counter()
            rep_means = {k: [] for k in cutoffs}
            for rep in range(repetitions):
                train, test, kept = upl_split(
                    dataset, SplitSpec(upl, min_test=min_test, seed=seed,
                                       repetitions=repetitions), rep)
                if user_sample is not None and user_sample < kept.size:
                    rng = np.random.default_rng(np.random.SeedSequence([seed, upl, rep, 1]))
                    kept = np.sort(rng.choice(kept, size=user_sample, replace=False))
                store = derive_preferences(train)
                if store.total == 0:
                    # every sampled profile is all-ties: nobody can be ranked
                    report.evaluated_users[(upl, rep)] = 0
                    report.cold_skipped[(upl, rep)] = int(kept.size)
                    for k in cutoffs:
                        rep_means[k].append(0.0)
                    continue
                ops = user_pref_operators(UserPrefGraph.from_store(store))
                warm = kept[ops.user_degrees[kept] > 0]
                seen = np.zeros((train.n_users, train.n_items), dtype=bool)
                seen[train.users, train.items] = True
                gains = sparse.csr_matrix((test.ratings, (test.users, test.items)),
                                          shape=(test.n_users, test.n_items))
                per_user = _ndcg_blocks(pool, ops, warm, seen, gains, cutoffs, walk1, walk2)
                report.evaluated_users[(upl, rep)] = int(warm.size)
                report.cold_skipped[(upl, rep)] = int(kept.size - warm.size)
                for j, k in enumerate(cutoffs):
                    rep_means[k].append(float(per_user[:, j].mean()) if warm.size else 0.0)
                if progress:
                    progress(f"upl={upl} rep={rep}: {warm.size} users, "
                             + " ".join(f"ndcg@{k}={rep_means[k][-1]:.4f}" for k in cutoffs))
            for k in cutoffs:
                vals = rep_means[k]
                report.cells[(upl, k)] = NdcgCell(
                    float(np.mean(vals)), float(np.std(vals)), vals)
            report.runtime_s[upl] = time.perf_counter() - t0
    return report


# -- diagnostics ------------------------------------------------------------

def _level_keys(v: np.ndarray, sig_digits: int) -> np.ndarray:
    """Per positive value, an int key naming its sig_digits-digit rounding."""
    exp = np.floor(np.log10(v)).astype(np.int64)
    mant = np.round(v / np.power(10.0, exp - (sig_digits - 1))).astype(np.int64)
    roll = mant >= 10 ** sig_digits  # e.g. 9.9999..e-3 rounding up to 1e-2
    mant[roll] //= 10
    exp[roll] += 1
    return mant * 1000 + (exp + 500)


# Neighbour pairs `_count_levels` examines at once.  A chunk's step array
# takes 512 KiB and stays in a core's L2 cache (2 MiB per core where it
# was measured), where one step array over all of a user's 2.83M pair
# masses (ML-100K-shaped upl=30 split) took 22.6 MB.  Counting those
# masses took 8.5 ms in chunks of 65,536 pairs, 15 ms in one pass and
# 18 ms in chunks of 8,192, which lose more to per-chunk calls than
# they gain.
LEVEL_CHUNK = 1 << 16


def _count_levels(v: np.ndarray, sig_digits: int = LEVEL_DIGITS) -> int:
    """`distinct_levels` of an ascending array of positive values,
    counted over LEVEL_CHUNK neighbour pairs at a time: each chunk's
    values overlap the next chunk's by one, so every neighbour pair is
    examined once."""
    if v.size == 0:
        return 0
    # two values sharing a key lie within half a unit of its last digit,
    # so within a relative 10**(1 - sig_digits) of each other; the factor
    # 2 leaves room for rounding in the step and in the keys
    limit = 2.0 * 10.0 ** (1 - sig_digits)
    levels = 1
    for lo in range(0, v.size - 1, LEVEL_CHUNK):
        head = v[lo:lo + LEVEL_CHUNK + 1]
        # relative step to the next value: inf where it overflows, NaN
        # between two infinities (which do not rise)
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.diff(head)
            step /= head[:-1]
        rises = step > 0
        close = np.flatnonzero(rises & (step <= limit))
        merged = np.count_nonzero(_level_keys(head[close], sig_digits)
                                  == _level_keys(head[close + 1], sig_digits))
        levels += int(np.count_nonzero(rises) - merged)
    return levels


def distinct_levels(values, sig_digits: int = LEVEL_DIGITS) -> int:
    """Distinct positive values after rounding to sig_digits significant
    digits.  Zero, negative and NaN entries are ignored; `values` is not
    modified.

    One sorted pass: the positive values are sorted and every rise
    between neighbours starts a new level, except where the two round
    to the same sig_digits-digit key.  Only neighbours within a relative
    step of about 10**(1 - sig_digits) can, so only those get a key.
    Rounding is monotone in the value, so values sharing a key are
    contiguous once sorted, and the count equals that of rounding each
    value on its own (`_level_keys`) and counting the distinct keys.
    That holds for normal floats; for subnormal ones the per-value
    formula's power of ten underflows and its keys stop meaning much.
    """
    v = np.asarray(values, dtype=np.float64)
    v = v[v > 0]
    v.sort()
    return _count_levels(v, sig_digits)


@dataclass
class UserDiagnostics:
    user: int
    similarity_fraction: float   # share of other active users reached
    similarity_levels: int
    concordance_fraction: float  # share of the pair universe, first walk
    concordance_levels: int
    pref_mass_fraction: float    # share of the pair universe, second walk; 1 at beta < 1
    pref_mass_levels: int
    first_iterations: int
    first_converged: bool
    second_iterations: int
    second_converged: bool


@dataclass
class DiagnosticsReport:
    n_users: int
    n_items: int
    n_observed_prefs: int
    universe: int
    connected: bool
    n_components: int
    n_active_users: int
    n_isolated_users: int
    users: list = field(default_factory=list)  # UserDiagnostics, sampled

    def mean_of(self, attr: str) -> float:
        return float(np.mean([getattr(u, attr) for u in self.users])) if self.users else 0.0

    def format_table(self) -> str:
        lines = [
            f"graph: {self.n_users} users ({self.n_active_users} active, "
            f"{self.n_isolated_users} isolated), {self.n_items} items, "
            f"{self.n_observed_prefs} observed of {self.universe} possible preferences",
            f"connected: {'yes' if self.connected else f'no ({self.n_components} components)'}",
            f"sampled users: {len(self.users)}",
        ]
        if self.users:
            lines += [
                f"mean similarity coverage:   {self.mean_of('similarity_fraction'):.4f} "
                f"({self.mean_of('similarity_levels'):.1f} levels)",
                f"mean first-walk coverage:   {self.mean_of('concordance_fraction'):.4f} "
                f"({self.mean_of('concordance_levels'):.1f} levels)",
                f"mean second-walk coverage:  {self.mean_of('pref_mass_fraction'):.4f} "
                f"({self.mean_of('pref_mass_levels'):.1f} levels)",
                f"first walk converged for  {self.mean_of('first_converged'):.0%} of "
                f"sampled users (mean {self.mean_of('first_iterations'):.1f} iterations)",
                f"second walk converged for {self.mean_of('second_converged'):.0%} of "
                f"sampled users (mean {self.mean_of('second_iterations'):.1f} iterations)",
            ]
        return "\n".join(lines)

    def to_tsv(self) -> str:
        head = ("user\tsim_frac\tsim_levels\tconc_frac\tconc_levels\t"
                "pref_frac\tpref_levels\titer1\tconv1\titer2\tconv2")
        lines = [head]
        for u in self.users:
            lines.append(
                f"{u.user}\t{u.similarity_fraction:.6f}\t{u.similarity_levels}\t"
                f"{u.concordance_fraction:.8f}\t{u.concordance_levels}\t"
                f"{u.pref_mass_fraction:.8f}\t{u.pref_mass_levels}\t"
                f"{u.first_iterations}\t{int(u.first_converged)}\t"
                f"{u.second_iterations}\t{int(u.second_converged)}")
        return "\n".join(lines) + "\n"


def collect_diagnostics(graph: UserPrefGraph, users=None, sample: int | None = None,
                        seed: int = 0, walk1: UserWalkConfig | None = None,
                        walk2: ItemWalkConfig | None = None,
                        progress=None) -> DiagnosticsReport:
    """Walk-coverage diagnostics for a sample of users with preferences.
    The graph builds its operators, walk 1's factor and `user_space` on
    its first call and keeps them, so later calls on the same graph
    spend their time on the users alone."""
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be at least 0, got {sample}")
    conn = connectivity_report(graph)
    ops = user_pref_operators(graph)
    uni = universe_size(graph.n_items)
    report = DiagnosticsReport(
        n_users=graph.n_users, n_items=graph.n_items,
        n_observed_prefs=int(ops.observed_ids.size), universe=uni,
        connected=conn.connected, n_components=conn.n_components,
        n_active_users=conn.n_active_users, n_isolated_users=conn.n_isolated_users,
    )
    active = np.flatnonzero(ops.user_degrees > 0)
    if users is None:
        users = active
    users = np.asarray(users, dtype=np.int64)
    if sample is not None and sample < users.size:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        users = np.sort(rng.choice(users, size=sample, replace=False))
    for u in users:
        first = solve_user_walk(ops, int(u), walk1)
        others = active[active != int(u)]
        sim_vals = first.similarities[others]
        conc = first.concordances
        conc_vals = conc[conc > NONZERO_EPS]
        conc_vals.sort()
        second = solve_item_walk(build_restart(conc, ops.observed_ids, ops.n_items), walk2)
        # the n_items**2 pair masses are this loop's own, so they are
        # sorted in place, with no filtered copy, and counted from the
        # first value above NONZERO_EPS
        pref = second.pref_mass
        pref.sort()
        pref_vals = pref[np.searchsorted(pref, NONZERO_EPS, side="right"):]
        report.users.append(UserDiagnostics(
            user=int(u),
            similarity_fraction=float((sim_vals > NONZERO_EPS).mean()) if others.size else 0.0,
            similarity_levels=distinct_levels(sim_vals),
            concordance_fraction=conc_vals.size / uni,
            concordance_levels=_count_levels(conc_vals),
            pref_mass_fraction=pref_vals.size / uni,
            pref_mass_levels=_count_levels(pref_vals),
            first_iterations=first.iterations,
            first_converged=first.converged,
            second_iterations=second.iterations,
            second_converged=second.converged,
        ))
        if progress:
            progress(f"user {u}: sim {report.users[-1].similarity_fraction:.3f}, "
                     f"walk2 coverage {report.users[-1].pref_mass_fraction:.4f}")
    return report
