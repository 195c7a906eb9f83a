"""Command-line interface.

Four subcommands: split a ratings file into per-user train/test pairs,
recommend items for users, run the NDCG evaluation protocol, and
print walk-coverage diagnostics.  Each option is declared once, in
OPTIONS, and COMMANDS names the options each subcommand reads.  Options
resolve in three layers: command-line flags beat config-file entries
beat built-in defaults.  The config file is flat `key=value` lines ('#'
starts a comment), with keys named like the long flags (underscores for
dashes).

Exit codes: 0 success, 1 usage errors (bad flags, bad config keys,
out-of-range values, impossible requests), 2 data errors (unreadable or empty inputs),
3 numerical failures.
"""

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .datasets import FORMAT_SEPS, SplitSpec, check_split, load_ratings, upl_split, write_ratings
from .errors import ColdStartError, DataError, NumericalError, UsageError
from .evaluation import EVAL_BLOCK, collect_diagnostics, rank_block, run_evaluation
from .graph import UserPrefGraph, user_pref_operators
from .item_walk import ItemWalkConfig, exclusion_mask
from .preferences import derive_preferences
from .user_walk import UserWalkConfig


def _int_list(text: str) -> list:
    try:
        values = [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    return values


# each option that is both a flag and a config key: key -> (parse, default,
# least value or None, help); a least value bounds each entry of a list
OPTIONS = {
    "format": (str, "tsv_umr", None, "ratings layout: " + " or ".join(sorted(FORMAT_SEPS))),
    "alpha": (float, 0.15, None, "first-walk restart probability"),
    "beta": (float, 0.15, None, "second-walk restart probability"),
    "tol": (float, 1e-10, None, "L1 tolerance below which a walk counts as converged"),
    "seed": (int, 0, 0, "seed of the splits and of the user sample"),
    "min_test": (int, 10, 0, "test ratings a kept user must have beyond its upl"),
    "repetitions": (int, 5, 1, "seeded splits per upl"),
    "top_k": (int, 10, 0, "items ranked per user"),
    "cutoffs": (_int_list, [1, 3, 5, 10], 1, "NDCG cutoffs, comma-separated"),
    "sample": (int, None, 0, "use only this many users (per repetition in evaluate)"),
    "upl": (_int_list, None, 1, "train ratings per user, comma-separated (one for diagnose)"),
    "rep": (int, 0, 0, "which repetition's split to diagnose"),
}


def load_config(path) -> dict:
    """Parse a flat key=value config file into typed values."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not UTF-8 text") from None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}, line {ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in OPTIONS:
            raise UsageError(f"{path}, line {ln}: unknown key {key!r}")
        try:
            values[key] = OPTIONS[key][0](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}, line {ln}: {exc}") from None
    return values


def resolve_options(args, config: dict) -> dict:
    """The arguments of args.command, each option it reads taken from its
    flag if given, else the config file, else its default.  A missing
    required value, a value below its least value, an unknown format and
    walk settings the walks refuse are usage errors from either source."""
    opts = dict(vars(args))
    command = COMMANDS[args.command]
    for key in command.options:
        _, default, least, _ = OPTIONS[key]
        val = opts[key] if opts[key] is not None else config.get(key, default)
        if val is None and key in command.required:
            raise UsageError(f"no {key} given: pass --{key} or set {key}= in the config")
        for v in val if isinstance(val, list) else [val]:
            if least is not None and v is not None and v < least:
                raise UsageError(f"{key.replace('_', '-')} must be at least {least}, got {v}")
        opts[key] = val
    if opts["format"] not in FORMAT_SEPS:
        raise UsageError(f"unknown format {opts['format']!r}")
    if "alpha" in command.options:
        tol = {"tol": opts["tol"]} if "tol" in command.options else {}
        try:
            opts["walk1"] = UserWalkConfig(alpha=opts["alpha"], **tol)
            opts["walk2"] = ItemWalkConfig(beta=opts["beta"], **tol)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return opts


def _progress(opts):
    return (lambda msg: print(msg, file=sys.stderr)) if opts["verbose"] else None


def _report(report, out, name: str) -> None:
    """Print the report's table and, given a directory, write its TSV there."""
    print(report.format_table())
    if out:
        path = Path(out) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_tsv(), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


def cmd_split(opts) -> int:
    fmt, repetitions = opts["format"], opts["repetitions"]
    dataset = load_ratings(opts["ratings"], fmt)
    ext = "tsv" if fmt == "tsv_umr" else "csv"
    specs = [SplitSpec(upl, min_test=opts["min_test"], seed=opts["seed"],
                       repetitions=repetitions) for upl in opts["upl"]]
    for spec in specs:  # an impossible upl fails before any file is written
        check_split(dataset, spec)
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        for rep in range(repetitions):
            train, test, kept = upl_split(dataset, spec, rep)
            train_path = out / f"train_upl{spec.upl}_rep{rep}.{ext}"
            test_path = out / f"test_upl{spec.upl}_rep{rep}.{ext}"
            write_ratings(train, train_path, fmt)
            write_ratings(test, test_path, fmt)
            print(f"upl={spec.upl} rep={rep}: kept {kept.size} users, "
                  f"{train.n_ratings} train / {test.n_ratings} test ratings "
                  f"-> {train_path.name}, {test_path.name}")
    return 0


def cmd_recommend(opts) -> int:
    dataset = load_ratings(opts["ratings"], opts["format"])
    ops = user_pref_operators(UserPrefGraph.from_store(derive_preferences(dataset)))
    # a user missing from the file stops the request there, after the
    # users before it are printed
    targets, missing = [], None
    for raw_user in opts["user"]:
        matches = (dataset.raw_user_ids == raw_user).nonzero()[0]
        if matches.size == 0:
            missing = raw_user
            break
        targets.append(int(matches[0]))
    # ranked EVAL_BLOCK requested users at a time, each slice printed
    # before the next is ranked, so memory stays flat in the list's length
    ranked = 0
    for lo in range(0, len(targets), EVAL_BLOCK):
        users = list(zip(opts["user"][lo:lo + EVAL_BLOCK], targets[lo:lo + EVAL_BLOCK]))
        warm = [t for _, t in users if ops.user_degrees[t] > 0]
        if warm:
            rated = [dataset.user_rows(t)[0] for t in warm]
            block = rank_block(ops, warm, opts["top_k"],
                               exclusion_mask(dataset.n_items, rated),
                               opts["walk1"], opts["walk2"])
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
        raise UsageError(f"user {missing} does not appear in {opts['ratings']}")
    if ranked == 0:
        raise ColdStartError("no requested user has any strict preference")
    return 0


def cmd_evaluate(opts) -> int:
    report = run_evaluation(
        load_ratings(opts["ratings"], opts["format"]),
        upls=opts["upl"],
        cutoffs=opts["cutoffs"],
        repetitions=opts["repetitions"],
        seed=opts["seed"],
        min_test=opts["min_test"],
        walk1=opts["walk1"], walk2=opts["walk2"],
        user_sample=opts["sample"],
        progress=_progress(opts),
    )
    _report(report, opts["out"], "ndcg_report.tsv")
    return 0


def cmd_diagnose(opts) -> int:
    upls = opts["upl"]
    if upls and len(upls) > 1:
        raise UsageError("diagnose takes one upl, got "
                         + ",".join(str(upl) for upl in upls))
    dataset = load_ratings(opts["ratings"], opts["format"])
    if upls:
        spec = SplitSpec(upls[0], min_test=opts["min_test"], seed=opts["seed"])
        dataset, _, _ = upl_split(dataset, spec, opts["rep"])
    report = collect_diagnostics(
        UserPrefGraph.from_store(derive_preferences(dataset)),
        sample=opts["sample"],
        seed=opts["seed"],
        walk1=opts["walk1"], walk2=opts["walk2"],
        progress=_progress(opts),
    )
    _report(report, opts["out"], "diagnostics.tsv")
    return 0


class Command(NamedTuple):
    run: Callable[[dict], int]
    help: str
    options: tuple           # the OPTIONS keys it reads
    flags: tuple = ()        # the _FLAGS it takes
    required: tuple = ()     # the options and flags it cannot run without


_WALK = ("alpha", "beta", "tol")

COMMANDS = {
    "split": Command(cmd_split, "write per-user train/test splits",
                     ("format", "upl", "repetitions", "min_test", "seed"),
                     ("out",), required=("upl", "out")),
    "recommend": Command(cmd_recommend, "rank unseen items for users",
                         ("format", "alpha", "beta", "top_k"), ("user",), required=("user",)),
    "evaluate": Command(cmd_evaluate, "NDCG protocol over splits",
                        ("format", *_WALK, "upl", "cutoffs", "repetitions", "min_test",
                         "seed", "sample"), ("out", "verbose"), required=("upl",)),
    "diagnose": Command(cmd_diagnose, "walk coverage diagnostics",
                        ("format", *_WALK, "upl", "rep", "min_test", "seed", "sample"),
                        ("out", "verbose")),
}

# flags that are not config keys: name -> (flag strings, add_argument keywords)
_FLAGS = {
    "user": (("--user",), dict(type=_int_list, help="raw user ids from the file, comma-separated")),
    "out": (("--out",), dict(help="output directory")),
    "verbose": (("--verbose", "-v"), dict(action="store_true", help="progress lines on stderr")),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default is 2, which we reserve
    # for data errors)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prefwalk",
                     description="Collaborative ranking from pairwise preferences.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no abbreviations: --rep is a diagnose option, not evaluate's --repetitions
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("ratings", help="ratings file (user, item, rating per line)")
        p.add_argument("--config", help="flat key=value config file")
        for key in command.options:
            parse, _, _, text = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), type=parse, help=text)
        for flag in command.flags:
            names, kwargs = _FLAGS[flag]
            p.add_argument(*names, required=flag in command.required, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return COMMANDS[args.command].run(resolve_options(args, config))
    except (UsageError, DataError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
