"""Command-line interface.

Four subcommands: split a ratings file into per-user train/test pairs,
recommend items for one user, run the NDCG evaluation protocol, and
print walk-coverage diagnostics.  Options resolve in three layers:
command-line flags beat config-file entries beat built-in defaults.
The config file is flat `key=value` lines ('#' starts a comment), with
keys named like the long flags (underscores for dashes).

Exit codes: 0 success, 1 usage errors (bad flags, bad config keys,
out-of-range values, impossible requests), 2 data errors (unreadable or empty inputs),
3 numerical failures.
"""

import argparse
import sys
from pathlib import Path

from .datasets import FORMAT_SEPS, SplitSpec, load_ratings, upl_split, write_ratings
from .errors import ColdStartError, DataError, NumericalError, UsageError
from .evaluation import EVAL_BLOCK, collect_diagnostics, rank_block, run_evaluation
from .graph import UserPrefGraph, user_pref_operators
from .item_walk import ItemWalkConfig, exclusion_mask
from .preferences import derive_preferences
from .user_walk import UserWalkConfig

DEFAULTS = {
    "format": "tsv_umr",
    "alpha": 0.15,
    "beta": 0.15,
    "tol": 1e-10,
    "seed": 0,
    "min_test": 10,
    "repetitions": 5,
    "top_k": 10,
    "cutoffs": [1, 3, 5, 10],
    "sample": None,
    "upl": None,
    "rep": 0,
}


def _int_list(text: str) -> list:
    try:
        values = [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    return values


_KEY_PARSERS = {
    "format": str,
    "alpha": float,
    "beta": float,
    "tol": float,
    "seed": int,
    "min_test": int,
    "repetitions": int,
    "top_k": int,
    "cutoffs": _int_list,
    "sample": int,
    "upl": _int_list,
    "rep": int,
}


def load_config(path) -> dict:
    """Parse a flat key=value config file into typed values."""
    values = {}
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}, line {ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_PARSERS:
            raise UsageError(f"{path}, line {ln}: unknown key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}, line {ln}: {exc}") from None
    return values


# the least value each integer option accepts, each entry of a list alike
_MINIMUMS = {
    "seed": 0,
    "min_test": 0,
    "repetitions": 1,
    "top_k": 0,
    "cutoffs": 1,
    "sample": 0,
    "upl": 1,
    "rep": 0,
}


def _resolve(args, config: dict, key: str):
    """Flag if given, else config-file entry, else default; an integer
    below its minimum is a usage error, wherever it came from."""
    val = getattr(args, key, None)
    if val is None:
        val = config.get(key, DEFAULTS[key])
    if key in _MINIMUMS and val is not None:
        for v in val if isinstance(val, list) else [val]:
            if v < _MINIMUMS[key]:
                raise UsageError(f"{key.replace('_', '-')} must be at least "
                                 f"{_MINIMUMS[key]}, got {v}")
    return val


def _walk_configs(args, config):
    try:
        walk1 = UserWalkConfig(alpha=_resolve(args, config, "alpha"),
                               tol=_resolve(args, config, "tol"))
        walk2 = ItemWalkConfig(beta=_resolve(args, config, "beta"),
                               tol=_resolve(args, config, "tol"))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return walk1, walk2


def _load(args, config):
    fmt = _resolve(args, config, "format")
    if fmt not in FORMAT_SEPS:
        raise UsageError(f"unknown format {fmt!r}")
    return load_ratings(args.ratings, fmt), fmt


def _require_upls(args, config) -> list:
    upls = _resolve(args, config, "upl")
    if not upls:
        raise UsageError("no profile size given: pass --upl or set upl= in the config")
    return upls


def _progress(args):
    if args.verbose:
        return lambda msg: print(msg, file=sys.stderr)
    return None


def cmd_split(args, config) -> int:
    dataset, fmt = _load(args, config)
    ext = "tsv" if fmt == "tsv_umr" else "csv"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    repetitions = _resolve(args, config, "repetitions")
    min_test = _resolve(args, config, "min_test")
    seed = _resolve(args, config, "seed")
    for upl in _require_upls(args, config):
        spec = SplitSpec(upl, min_test=min_test, seed=seed, repetitions=repetitions)
        for rep in range(repetitions):
            train, test, kept = upl_split(dataset, spec, rep)
            train_path = out / f"train_upl{upl}_rep{rep}.{ext}"
            test_path = out / f"test_upl{upl}_rep{rep}.{ext}"
            write_ratings(train, train_path, fmt)
            write_ratings(test, test_path, fmt)
            print(f"upl={upl} rep={rep}: kept {kept.size} users, "
                  f"{train.n_ratings} train / {test.n_ratings} test ratings "
                  f"-> {train_path.name}, {test_path.name}")
    return 0


def cmd_recommend(args, config) -> int:
    dataset, _ = _load(args, config)
    walk1, walk2 = _walk_configs(args, config)
    top_k = _resolve(args, config, "top_k")
    ops = user_pref_operators(UserPrefGraph.from_store(derive_preferences(dataset)))
    # a user missing from the file stops the request there, after the
    # users before it are printed
    targets, missing = [], None
    for raw_user in args.user:
        matches = (dataset.raw_user_ids == raw_user).nonzero()[0]
        if matches.size == 0:
            missing = raw_user
            break
        targets.append(int(matches[0]))
    # ranked EVAL_BLOCK requested users at a time, each slice printed
    # before the next is ranked, so memory stays flat in the list's length
    ranked = 0
    for lo in range(0, len(targets), EVAL_BLOCK):
        users = list(zip(args.user[lo:lo + EVAL_BLOCK], targets[lo:lo + EVAL_BLOCK]))
        warm = [t for _, t in users if ops.user_degrees[t] > 0]
        if warm:
            rated = [dataset.user_rows(t)[0] for t in warm]
            block = rank_block(ops, warm, top_k, exclusion_mask(dataset.n_items, rated),
                               walk1, walk2)
        col = 0  # the next warm user's column in the block
        for raw_user, target in users:
            if ops.user_degrees[target] == 0:
                print(f"warning: user {raw_user} has no strict preferences, skipped",
                      file=sys.stderr)
                continue
            for rank, item in enumerate(block.items[col, :block.counts[col]], start=1):
                raw_item = dataset.raw_item_ids[item]
                print(f"{raw_user}\t{rank}\t{raw_item}\t{block.scored.scores[item, col]:.6f}")
            col += 1
        ranked += len(warm)
    if missing is not None:
        raise UsageError(f"user {missing} does not appear in {args.ratings}")
    if ranked == 0:
        raise ColdStartError("no requested user has any strict preference")
    return 0


def cmd_evaluate(args, config) -> int:
    dataset, _ = _load(args, config)
    walk1, walk2 = _walk_configs(args, config)
    report = run_evaluation(
        dataset,
        upls=_require_upls(args, config),
        cutoffs=_resolve(args, config, "cutoffs"),
        repetitions=_resolve(args, config, "repetitions"),
        seed=_resolve(args, config, "seed"),
        min_test=_resolve(args, config, "min_test"),
        walk1=walk1, walk2=walk2,
        user_sample=_resolve(args, config, "sample"),
        progress=_progress(args),
    )
    print(report.format_table())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ndcg_report.tsv").write_text(report.to_tsv(), encoding="utf-8")
        print(f"wrote {out / 'ndcg_report.tsv'}", file=sys.stderr)
    return 0


def cmd_diagnose(args, config) -> int:
    upls = _resolve(args, config, "upl")
    if upls and len(upls) > 1:
        raise UsageError("diagnose takes one upl, got "
                         + ",".join(str(upl) for upl in upls))
    dataset, _ = _load(args, config)
    rep = _resolve(args, config, "rep")
    if upls:
        spec = SplitSpec(upls[0], min_test=_resolve(args, config, "min_test"),
                         seed=_resolve(args, config, "seed"))
        dataset, _, _ = upl_split(dataset, spec, rep)
    walk1, walk2 = _walk_configs(args, config)
    report = collect_diagnostics(
        UserPrefGraph.from_store(derive_preferences(dataset)),
        sample=_resolve(args, config, "sample"),
        seed=_resolve(args, config, "seed"),
        walk1=walk1, walk2=walk2,
        progress=_progress(args),
    )
    print(report.format_table())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diagnostics.tsv").write_text(report.to_tsv(), encoding="utf-8")
        print(f"wrote {out / 'diagnostics.tsv'}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default is 2, which we reserve
    # for data errors)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prefwalk",
                     description="Collaborative ranking from pairwise preferences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("ratings", help="ratings file (user, item, rating per line)")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--format", choices=sorted(FORMAT_SEPS))
        p.add_argument("--seed", type=int)
        p.add_argument("--verbose", "-v", action="store_true")

    def walk_flags(p):
        p.add_argument("--alpha", type=float, help="first-walk restart probability")
        p.add_argument("--beta", type=float, help="second-walk restart probability")
        p.add_argument("--tol", type=float,
                       help="L1 tolerance below which a walk counts as converged")

    p = sub.add_parser("split", parents=[], help="write per-user train/test splits")
    common(p)
    p.add_argument("--upl", type=_int_list, help="train ratings per user, comma-separated")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--min-test", dest="min_test", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("recommend", help="rank unseen items for users")
    common(p)
    walk_flags(p)
    p.add_argument("--user", type=_int_list, required=True,
                   help="raw user id(s) from the file, comma-separated")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="NDCG protocol over splits")
    common(p)
    walk_flags(p)
    p.add_argument("--upl", type=_int_list)
    p.add_argument("--cutoffs", type=_int_list)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--min-test", dest="min_test", type=int)
    p.add_argument("--sample", type=int, help="evaluate only this many users per rep")
    p.add_argument("--out", help="directory for the machine-readable report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="walk coverage diagnostics")
    common(p)
    walk_flags(p)
    p.add_argument("--upl", type=_int_list,
                   help="split first, keeping this many train ratings per user (one "
                        "value), and diagnose the train side")
    p.add_argument("--rep", type=int, help="which repetition to diagnose")
    p.add_argument("--min-test", dest="min_test", type=int)
    p.add_argument("--sample", type=int, help="diagnose only this many users")
    p.add_argument("--out", help="directory for the per-user report")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
