"""prefwalk benchmark.

    python3 perfbench/run.py --workload recommend-full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (it imports prefwalk from `src/`).  For
the seed it generates a synthetic ratings file shaped like MovieLens-100K
(gen.py), runs the workload in a fresh process (worker.py), checks the
outputs against exact converged walks (check.py, reference.py), prints
every metric with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run.  `--workload all` runs every workload, each
in its own process.  Generated files, cached reference results and span
dumps go to `.perfbench/` in the checkout.  BLAS is capped at one thread
per process and evaluate-upl10 uses a pool of 2, so a run never uses
more than 2 cores.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# numpy (and gen, check, prefwalk, which import it) load inside functions,
# after main() has capped the BLAS threads through these variables
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CACHE = ROOT / ".perfbench"
WORKLOADS = ("evaluate-upl10", "recommend-full", "diagnose-upl30")
N_RATINGS = 59_466
RUN_LIMIT_S = 170  # whole run, worker included
CUTOFFS = (1, 3, 5, 10)

END_TO_END = {"setup_s": "s", "users_per_s": "1/s", "peak_rss_mb": "MB",
              "score_digits": "digits"}
ERR_FLOOR = 1e-16  # score_digits = -log10(score_err_max clipped to [ERR_FLOOR, 1])
PER_LAYER = {
    "datasets.parse_ms": "ms", "preferences.derive_ms": "ms", "preferences.n_prefs": "count",
    "graph.from_store_ms": "ms", "graph.operators_ms": "ms", "graph.operator_mb": "MB",
    "graph.observed_prefs": "count", "user_walk.ms_p50": "ms", "user_walk.ms_p90": "ms",
    "user_walk.sweeps": "count", "user_walk.converged_frac": "frac",
    "user_walk.residual_max": "abs", "user_walk.mb_per_sweep": "MB", "user_walk.gbps": "GB/s",
    "item_walk.ms_p50": "ms", "item_walk.sweeps": "count", "item_walk.converged_frac": "frac",
    "item_walk.topk_ms": "ms", "evaluation.cold_skipped": "count",
    "bench.users_traced": "count", "bench.failed_frac": "frac",
    "bench.trace_overhead_frac": "frac",
}
# printed where the module runs, but not on every workload
WORKLOAD_LAYERS = {
    "datasets.split_ms": "ms", "graph.connectivity_ms": "ms", "item_walk.pref_mass_ms": "ms",
    "evaluation.levels_ms": "ms", "evaluation.ndcg_ms": "ms",
    "evaluation.serial_busy_s": "s", "evaluation.parallel_eff": "frac",
}

# Shape the benchmark depends on, at N_RATINGS ratings: (low, high) inclusive.
SHAPE = {
    "preferences": (4.2e6, 4.9e6),
    "recommend-full.observed_prefs": (1.55e6, 1.95e6),
    "evaluate-upl10.kept_users": (943, 943),
    "evaluate-upl10.observed_prefs": (24e3, 31e3),
    "diagnose-upl30.kept_users": (330, 390),
    "diagnose-upl30.observed_prefs": (85e3, 105e3),
}


class BenchError(Exception):
    """A run that cannot report a result; main() prints it and exits with `code`."""

    def __init__(self, msg: str, code: int = 1):
        super().__init__(msg)
        self.code = code


def percentiles(samples) -> str:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    import numpy as np
    s = np.asarray(samples, dtype=float)
    parts = [f"p50={np.median(s):.6g}"]
    for p in (99.9, 99, 95, 90, 75):
        if s.size * (1 - p / 100) >= 10:
            parts.append(f"p{p:g}={np.percentile(s, p):.6g}")
            break
    return " ".join(parts) + f" n={s.size}"


def dataset(seed: int) -> tuple:
    """(path, shape, problems) of the seed's ratings file; regenerating a
    file seen before must reproduce it byte for byte."""
    import gen
    path = CACHE / f"ratings-s{seed}-n{N_RATINGS}.tsv"
    sidecar = Path(f"{path}.shape.json")
    before = json.loads(sidecar.read_text()) if sidecar.is_file() else None
    shape = gen.write(path, seed, N_RATINGS)
    problems = []
    if before is not None and before["sha256"] != shape["sha256"]:
        problems.append("generator is not deterministic: same seed, different file")
    want = {"n_users": gen.N_USERS, "n_items": gen.N_ITEMS, "n_ratings": N_RATINGS}
    problems += [f"dataset {k}={shape[k]}, expected {v}" for k, v in want.items()
                 if shape[k] != v]
    if shape["profile_min"] < gen.MIN_PROFILE:
        problems.append(f"a profile has {shape['profile_min']} < {gen.MIN_PROFILE} ratings")
    return path, shape, problems


def in_range(name: str, value, problems: list) -> None:
    lo, hi = SHAPE[name]
    if not lo <= value <= hi:
        problems.append(f"shape: {name}={value} outside [{lo:g}, {hi:g}]")


def run_worker(args, ratings: Path, deadline: float) -> dict:
    out = CACHE / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--ratings", str(ratings), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
           "--spans", str(CACHE / f"spans-{args.workload}-s{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    if code != 0:
        raise BenchError(f"{args.workload} worker exited with code {code}")
    return json.loads(out.read_text())


def ref_cache(workload: str, ds) -> Path:
    """Cached reference results for the ratings the walks run on: keyed by
    those arrays and by the benchmark's reference code, so a change to the
    split or to the reference never reuses a stale result."""
    h = hashlib.sha256()
    for a in (ds.users, ds.items, ds.ratings):
        h.update(a.tobytes())
    for name in ("reference.py", "check.py"):
        h.update((HERE / name).read_bytes())
    return CACHE / f"ref-{workload}-{h.hexdigest()[:16]}.npz"


def check(args, ratings: Path, shape: dict, res: dict, problems: list) -> tuple:
    """(score_err_max, failed users, extra lines) against the reference."""
    import numpy as np
    from check import Reference, check_diagnostics, check_users, reference_ndcg
    from prefwalk import SplitSpec, load_ratings, upl_split

    w = args.workload
    ds = load_ratings(ratings)
    counts = res["counts"]
    in_range(f"{w}.observed_prefs", counts["observed_prefs"], problems)
    lines = []
    if w == "recommend-full":
        if counts["n_prefs"] != shape["preferences"]:
            problems.append(f"derive_preferences found {counts['n_prefs']} preferences, "
                            f"the generator {shape['preferences']}")
        ref = Reference(ref_cache(w, ds), lambda: ds)
        err, failed = check_users(ref, res["outputs"], lambda u: ds.user_rows(u)[0])
    else:
        upl = 10 if w == "evaluate-upl10" else 30
        train, test, kept = upl_split(ds, SplitSpec(upl, seed=args.seed, repetitions=1), 0)
        in_range(f"{w}.kept_users", res["kept_users"], problems)
        ref = Reference(ref_cache(w, train), lambda: train)
        err, failed = check_users(ref, res["outputs"], lambda u: train.user_rows(u)[0])
        if w == "evaluate-upl10":
            exact, low, high = reference_ndcg(ref, train, test, kept, CUTOFFS)
            got = np.array([res["ndcg"][str(k)] for k in CUTOFFS])
            lines.append(f"ndcg10 {got[-1]:.6f} (reference {exact[-1]:.6f}, "
                         f"{low[-1]:.6f} to {high[-1]:.6f} over ties)")
            if np.any(got < low - 1e-9) or np.any(got > high + 1e-9):
                problems.append(f"mean NDCG {got.tolist()} outside the reference range "
                                f"{low.tolist()} to {high.tolist()}")
        else:
            failed = sorted(set(failed) | set(check_diagnostics(ref, res["diagnostics"])))
    ref.save()
    return err, failed, lines


def run_one(args) -> dict:
    """Run, check and report one workload; returns the result object."""
    start = time.monotonic()
    CACHE.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    ratings, shape, problems = dataset(args.seed)
    in_range("preferences", shape["preferences"], problems)
    res = run_worker(args, ratings, start + RUN_LIMIT_S)
    err, failed, lines = check(args, ratings, shape, res, problems)
    attempted = max(1, res["attempted"])
    failed_frac = len(failed) / max(1, len(res["outputs"]))  # of the users checked
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for u in failed:
        print(f"CHECK FAILED: user {u} disagrees with the reference")

    import numpy as np
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['attempted']} users attempted, {len(res['outputs'])} checked, "
          f"{len(failed)} failed")
    print(f"failed_frac {failed_frac:.6g} frac")
    print(f"score_err_max {err:.6g} abs")
    if args.trace:
        layers = dict(res["layers"], **{"bench.failed_frac": failed_frac})
        units = dict(PER_LAYER, **WORKLOAD_LAYERS)
        for name, value in layers.items():
            shown = value if units[name] == "count" else f"{value:.6g}"
            print(f"{name} {shown} {units[name]}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": float(np.min(res["setup_s"])),
                  "users_per_s": float(np.median(res["users_per_s"])),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "score_digits": -float(np.log10(min(max(err, ERR_FLOOR), 1.0)))}
        print(f"setup_s min={values['setup_s']:.6g} {percentiles(res['setup_s'])} s")
        print(f"users_per_s {percentiles(res['users_per_s'])} 1/s")
        if "user_ms" in res:
            print(f"user_ms {percentiles(res['user_ms'])} ms")
        print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB")
        print(f"score_digits {values['score_digits']:.6g} digits")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for line in lines:
        print(line)
    return {"correct": not problems and not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in turn (each still in its own worker process), with
    the results merged and the metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = run_one(argparse.Namespace(**dict(vars(args), workload=w)))
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prefwalk benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads here, and inherited by the worker
        os.environ[var] = "1"
    try:
        if not (ROOT / "src" / "prefwalk" / "__init__.py").is_file():
            raise BenchError(f"no prefwalk sources under {ROOT / 'src'}; "
                             "run from the repository root", 2)
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return e.code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
