"""One benchmark workload in a fresh process.

    python3 perfbench/worker.py --workload recommend-full --ratings FILE \
        --seed 1 --seconds 15 --trace 0 --out result.json

Imports prefwalk from the checkout's `src/`, sets the workload up
several times, then runs its closed loop (one client: the next user
starts when the previous one is done) for --seconds, and writes the
timings, the outputs to check and the counts to --out as JSON.

--trace 0 times the package's own entry points (run_evaluation,
rank_items_for_user, collect_diagnostics), as users call them.
--trace 1 instead calls the public function of each module one by one
inside recorded spans, and runs every user twice, traced and untraced,
alternating which goes first, so the tracing overhead is measured on
the same work.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from prefwalk import (ColdStartError, SplitSpec, UserPrefGraph,  # noqa: E402
                      build_restart, collect_diagnostics, connectivity_report,
                      derive_preferences, distinct_levels, item_pole_operators,
                      load_ratings, ndcg_at_k, rank_items_for_user, recommend_topk,
                      restart_vector, run_evaluation, run_item_walk, run_user_walk,
                      score_items, upl_split, user_pref_operators)

from spans import SpanRecorder  # noqa: E402

SETUPS = 3             # set-ups per run where set-up takes seconds (recommend-full)
CHEAP_SETUPS = 30      # set-ups per run where it is sub-second, taken GAP_SETUPS at a
GAP_SETUPS = 10        # time before the first and after each chunk of work
JOBS = 2               # evaluate-upl10 pool size (nproc on the reference machine)
TOP_K = 10
CUTOFFS = (1, 3, 5, 10)
CHECK_USERS = 40       # users re-ranked for the reference check after the timed loop
DIAG_BATCH = 3         # users per collect_diagnostics call
MIN_TRACED_USERS = 2   # traced runs rank at least this many users
NONZERO_EPS = 1e-15


def _setup_times(fn, repeats=SETUPS):
    """Call fn `repeats` times, freeing each result before the next call."""
    times, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = fn()
        times.append(time.perf_counter() - t0)
    return state, times


def _gap_setups(fn, times, last=False):
    """Extend `times` by one gap's set-ups, never past CHEAP_SETUPS; with
    `last`, by as many as it still lacks."""
    n = CHEAP_SETUPS - len(times)
    times.extend(_setup_times(fn, n if last else min(n, GAP_SETUPS))[1])


def _graph(rec, store):
    g = rec.call("graph.from_store", UserPrefGraph.from_store, store)
    return g, rec.call("graph.user_pref_operators", user_pref_operators, g)


def _rank(rec, ops, poles, user, k, exclude=()):
    """rank_items_for_user, one module call per span."""
    d = rec.call("user_walk.restart_vector", restart_vector, ops, user)
    first = rec.call("user_walk.run_user_walk", run_user_walk,
                     ops.pref_to_user, ops.user_to_pref, d)
    q = rec.call("item_walk.build_restart", build_restart,
                 first.concordances, ops.observed_ids, ops.n_items)
    second = rec.call("item_walk.run_item_walk", run_item_walk, poles[0], poles[1], q)
    with rec.span("item_walk.topk"):
        scored = score_items(second)
        items = recommend_topk(scored, k, exclude)
    return items, scored.scores, first, second


def _walk_stats(first, second) -> dict:
    return {"sweeps1": first.iterations, "conv1": first.converged,
            "residual1": first.residual, "sweeps2": second.iterations,
            "conv2": second.converged}


def _output(items, scores) -> dict:
    return {"items": [int(i) for i in items], "scores": [float(s) for s in scores]}


def _paired(rec, users, seconds, per_user):
    """Run per_user(recorder, user) for each user, traced and untraced,
    until `seconds` pass; returns [(user, traced_s, untraced_s)].  The
    order alternates and the pair count is even, so each side runs first
    equally often."""
    off = SpanRecorder(enabled=False)
    pairs, t0 = [], time.perf_counter()
    for n, u in enumerate(users):
        walls = {}
        for r in ((rec, off) if n % 2 == 0 else (off, rec)):
            t = time.perf_counter()
            per_user(r, int(u))
            walls[r.enabled] = time.perf_counter() - t
        pairs.append((int(u), walls[True], walls[False]))
        if (time.perf_counter() - t0 >= seconds and len(pairs) >= MIN_TRACED_USERS
                and len(pairs) % 2 == 0):
            break
    return pairs


def _operator_bytes(ops) -> tuple:
    """(all operator arrays, the two CSR matrices) in bytes."""
    csr = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
              for m in (ops.pref_to_user.matrix, ops.user_to_pref.matrix))
    rest = sum(a.nbytes for a in (ops.observed_ids, ops.pref_support, ops.user_degrees,
                                  ops.pref_col_indptr, ops.pref_col_indices))
    return csr + rest, csr


def _graph_counts(store, ops) -> dict:
    total, csr = _operator_bytes(ops)
    vectors = 2 * 8 * (ops.n_users + ops.observed_ids.size)  # read + write, both sides
    return {"n_prefs": store.total, "observed_prefs": int(ops.observed_ids.size),
            "operator_mb": total / 1e6, "sweep_mb": (csr + vectors) / 1e6}


# -- workloads ----------------------------------------------------------------

def evaluate_upl10(args, rec) -> dict:
    def parse():
        return rec.call("datasets.load_ratings", load_ratings, args.ratings)

    # parsing is sub-second: repeat it after every evaluation too, so the
    # set-up samples spread over the whole run
    ds, setup = _setup_times(parse, GAP_SETUPS)
    out = {"setup_s": setup}
    spec = SplitSpec(10, seed=args.seed, repetitions=1)

    def evaluate():
        t = time.perf_counter()
        report = run_evaluation(ds, [10], CUTOFFS, repetitions=1, seed=args.seed, jobs=JOBS)
        return report, time.perf_counter() - t

    runs = []  # --seconds counts evaluation time only, not the set-ups between
    while not runs or (not args.trace and sum(w for _, w in runs) < args.seconds):
        runs.append(evaluate())
        _gap_setups(parse, setup)
    _gap_setups(parse, setup, last=True)
    report = runs[-1][0]
    out["evaluation_wall_s"] = [w for _, w in runs]
    out["users_per_s"] = [r.evaluated_users[(10, 0)] / w for r, w in runs]
    out["attempted"] = sum(r.evaluated_users[(10, 0)] + r.cold_skipped[(10, 0)]
                           for r, _ in runs)
    out["ndcg"] = {str(k): report.cells[(10, k)].mean for k in CUTOFFS}
    out["cold_skipped"] = report.cold_skipped[(10, 0)]

    train, test, kept = rec.call("datasets.upl_split", upl_split, ds, spec, 0)
    store = rec.call("preferences.derive_preferences", derive_preferences, train)
    _, ops = _graph(rec, store)
    poles = rec.call("graph.item_pole_operators", item_pole_operators, ds.n_items)
    out["kept_users"] = int(kept.size)
    out["counts"] = _graph_counts(store, ops)
    outputs = out["outputs"] = {}

    if not args.trace:
        rng = np.random.default_rng([args.seed, 11])
        for u in np.sort(rng.choice(kept, size=min(CHECK_USERS, kept.size), replace=False)):
            rated, _ = train.user_rows(int(u))
            try:
                o = rank_items_for_user(ops, *poles, int(u), k=TOP_K, exclude=rated)
            except ColdStartError:
                continue
            outputs[str(u)] = _output(o.items, o.scored.scores)
        return out

    stats = out["walks"] = []

    def per_user(r, u):
        with r.span("user", u):
            rated = r.call("datasets.user_rows", train.user_rows, u)[0]
            test_items, test_ratings = r.call("datasets.user_rows", test.user_rows, u)
            gains = {int(i): float(v) for i, v in zip(test_items, test_ratings)}
            try:
                items, scores, first, second = _rank(r, ops, poles, u, max(CUTOFFS), rated)
            except ColdStartError:
                return
            for k in CUTOFFS:
                r.call("evaluation.ndcg_at_k", ndcg_at_k, items, gains, k)
        if r.enabled:
            outputs[str(u)] = _output(items, scores)
            stats.append(_walk_stats(first, second))

    out["pairs"] = _paired(rec, kept, args.seconds, per_user)
    return out


def recommend_full(args, rec) -> dict:
    def setup():
        ds = rec.call("datasets.load_ratings", load_ratings, args.ratings)
        store = rec.call("preferences.derive_preferences", derive_preferences, ds)
        _, ops = _graph(rec, store)
        poles = rec.call("graph.item_pole_operators", item_pole_operators, ds.n_items)
        return ds, store, ops, poles

    (ds, store, ops, poles), setup_s = _setup_times(setup)
    out = {"setup_s": setup_s, "counts": _graph_counts(store, ops), "cold_skipped": 0}
    del store
    users = np.random.default_rng([args.seed, 12]).permutation(ds.n_users)
    outputs = out["outputs"] = {}

    if not args.trace:
        user_s, t0 = [], time.perf_counter()
        for u in users:
            t = time.perf_counter()
            rated, _ = ds.user_rows(int(u))
            try:
                o = rank_items_for_user(ops, *poles, int(u), k=TOP_K, exclude=rated)
            except ColdStartError:
                out["cold_skipped"] += 1
                continue
            user_s.append(time.perf_counter() - t)
            outputs[str(u)] = _output(o.items, o.scored.scores)
            if time.perf_counter() - t0 >= args.seconds:
                break
        out["user_ms"] = [1e3 * s for s in user_s]
        out["users_per_s"] = [1.0 / s for s in user_s]
        out["attempted"] = len(user_s) + out["cold_skipped"]
        return out

    stats = out["walks"] = []

    def per_user(r, u):
        with r.span("user", u):
            rated = r.call("datasets.user_rows", ds.user_rows, u)[0]
            items, scores, first, second = _rank(r, ops, poles, u, TOP_K, rated)
        if r.enabled:
            outputs[str(u)] = _output(items, scores)
            stats.append(_walk_stats(first, second))

    out["pairs"] = _paired(rec, users, args.seconds, per_user)
    out["attempted"] = len(out["pairs"])
    return out


def diagnose_upl30(args, rec) -> dict:
    def setup():
        ds = rec.call("datasets.load_ratings", load_ratings, args.ratings)
        train, _, kept = rec.call("datasets.upl_split", upl_split, ds,
                                  SplitSpec(30, seed=args.seed, repetitions=1), 0)
        store = rec.call("preferences.derive_preferences", derive_preferences, train)
        g = rec.call("graph.from_store", UserPrefGraph.from_store, store)
        return ds, kept, store, g

    (ds, kept, store, graph), setup_s = _setup_times(setup, GAP_SETUPS)
    out = {"setup_s": setup_s, "kept_users": int(kept.size), "cold_skipped": 0}
    active = np.flatnonzero([graph.user_degree(int(u)) > 0 for u in range(graph.n_users)])
    users = np.random.default_rng([args.seed, 13]).permutation(active)
    diags = out["diagnostics"] = []
    outputs = out["outputs"] = {}

    if not args.trace:
        user_ms, batch_rates, busy = [], [], 0.0
        for at in range(0, users.size, DIAG_BATCH):
            marks = [time.perf_counter()]  # the first user also pays the graph build
            report = collect_diagnostics(graph, users=users[at:at + DIAG_BATCH],
                                         progress=lambda _: marks.append(time.perf_counter()))
            user_ms.extend(1e3 * np.diff(marks))
            elapsed = time.perf_counter() - marks[0]
            busy += elapsed
            batch_rates.append(len(report.users) / elapsed)
            diags.extend(vars(d) for d in report.users)
            _gap_setups(setup, setup_s)  # outside the --seconds budget
            if busy >= args.seconds:
                break
        _gap_setups(setup, setup_s, last=True)
        out["user_ms"] = user_ms
        out["users_per_s"] = batch_rates
        out["attempted"] = len(diags)
        ops = user_pref_operators(graph)
        out["counts"] = _graph_counts(store, ops)
        poles = item_pole_operators(ds.n_items)
        for u in users[:max(CHECK_USERS, len(diags))]:  # the diagnosed users come first
            o = rank_items_for_user(ops, *poles, int(u), k=0)
            outputs[str(u)] = _output([], o.scored.scores)
        return out

    rec.call("graph.connectivity_report", connectivity_report, graph)
    ops = rec.call("graph.user_pref_operators", user_pref_operators, graph)
    poles = rec.call("graph.item_pole_operators", item_pole_operators, ds.n_items)
    out["counts"] = _graph_counts(store, ops)
    stats = out["walks"] = []
    uni = ds.n_items * (ds.n_items - 1)

    def per_user(r, u):
        """collect_diagnostics' per-user body, one module call per span."""
        with r.span("user", u):
            _, scores, first, second = _rank(r, ops, poles, u, 0)
            others = active[active != u]
            sims = first.similarities[others]
            conc = first.concordances[first.concordances > NONZERO_EPS]
            pref = r.call("item_walk.pref_mass", getattr, second, "pref_mass")
            pref = pref[pref > NONZERO_EPS]
            row = {"user": u,
                   "similarity_fraction": float((sims > NONZERO_EPS).mean()),
                   "concordance_fraction": conc.size / uni,
                   "pref_mass_fraction": pref.size / uni}
            for key, vals in (("similarity_levels", sims), ("concordance_levels", conc),
                              ("pref_mass_levels", pref)):
                row[key] = r.call("evaluation.distinct_levels", distinct_levels, vals)
        if r.enabled:
            diags.append(row)
            outputs[str(u)] = _output([], scores)
            stats.append(_walk_stats(first, second))

    out["pairs"] = _paired(rec, users, args.seconds, per_user)
    out["attempted"] = len(out["pairs"])
    return out


WORKLOADS = {"evaluate-upl10": evaluate_upl10, "recommend-full": recommend_full,
             "diagnose-upl30": diagnose_upl30}


# -- per-layer metrics from the spans ----------------------------------------

def layer_metrics(rec: SpanRecorder, out: dict) -> dict:
    """Busy (self) time per module function, in ms, from the traced run."""
    own = rec.self_times()
    per_name = defaultdict(list)
    for span, t in zip(rec.spans, own):
        per_name[span.name].append(1e3 * t)
    med = {name: float(np.median(v)) for name, v in per_name.items()}
    total = {name: float(np.sum(v)) for name, v in per_name.items()}
    walk1 = per_name["user_walk.run_user_walk"]
    walks = out["walks"]
    sweeps1 = [w["sweeps1"] for w in walks]
    counts = out["counts"]
    traced = np.array([p[1] for p in out["pairs"]])
    ratio = traced / np.array([p[2] for p in out["pairs"]])
    users = max(1, len(out["pairs"]))
    layers = {
        "datasets.parse_ms": med["datasets.load_ratings"],
        "datasets.split_ms": med.get("datasets.upl_split"),
        "preferences.derive_ms": med["preferences.derive_preferences"],
        "preferences.n_prefs": counts["n_prefs"],
        "graph.from_store_ms": med["graph.from_store"],
        "graph.operators_ms": med["graph.user_pref_operators"],
        "graph.operator_mb": counts["operator_mb"],
        "graph.observed_prefs": counts["observed_prefs"],
        "graph.connectivity_ms": med.get("graph.connectivity_report"),
        "user_walk.ms_p50": float(np.percentile(walk1, 50)),
        "user_walk.ms_p90": float(np.percentile(walk1, 90)),
        "user_walk.sweeps": int(np.median(sweeps1)),
        "user_walk.converged_frac": float(np.mean([w["conv1"] for w in walks])),
        "user_walk.residual_max": float(max(w["residual1"] for w in walks)),
        "user_walk.mb_per_sweep": counts["sweep_mb"],
        "user_walk.gbps": counts["sweep_mb"] * float(np.sum(sweeps1)) / float(np.sum(walk1)),
        "item_walk.ms_p50": med["item_walk.run_item_walk"],
        "item_walk.sweeps": int(np.median([w["sweeps2"] for w in walks])),
        "item_walk.converged_frac": float(np.mean([w["conv2"] for w in walks])),
        "item_walk.topk_ms": med["item_walk.topk"],
        "item_walk.pref_mass_ms": med.get("item_walk.pref_mass"),
        "evaluation.levels_ms": (total["evaluation.distinct_levels"] / users
                                 if "evaluation.distinct_levels" in total else None),
        "evaluation.ndcg_ms": (total["evaluation.ndcg_at_k"] / users
                               if "evaluation.ndcg_at_k" in total else None),
        "evaluation.cold_skipped": out.get("cold_skipped", 0),
        "bench.users_traced": len(out["pairs"]),
        "bench.trace_overhead_frac": float(np.median(ratio) - 1.0),
    }
    if "evaluation_wall_s" in out:
        # serial busy time of one repetition: its graph build plus every
        # kept user at the traced per-user rate, against the pool's wall time
        build = sum(total[n] for n in ("datasets.upl_split", "preferences.derive_preferences",
                                       "graph.from_store", "graph.user_pref_operators"))
        busy_ms = build + float(np.mean(traced)) * 1e3 * out["kept_users"]
        layers["evaluation.serial_busy_s"] = busy_ms / 1e3
        layers["evaluation.parallel_eff"] = busy_ms / 1e3 / (JOBS * out["evaluation_wall_s"][0])
    return {k: v for k, v in layers.items() if v is not None}


def peak_rss_mb() -> float:
    """Largest RSS of this process or any pool child it waited for.  This
    process's own peak is read as VmHWM where Linux provides it, because
    its ru_maxrss also counts the launching process's RSS at the fork
    that preceded exec."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one prefwalk benchmark workload.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--ratings", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)

    rec = SpanRecorder(enabled=bool(args.trace))
    out = WORKLOADS[args.workload](args, rec)
    out["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        out["layers"] = layer_metrics(rec, out)
        if args.spans:
            rec.write(args.spans)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
