"""The benchmark under perfbench/ drives the package by name.  These
checks read its sources with `ast` and fail when a change removes or
renames a function it imports or a member it reads, or changes a
signature its calls no longer fit, so a refactor cannot break the
benchmark unnoticed."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from helpers import first_warm_user, random_ratings

from prefwalk import (UserPrefGraph, collect_diagnostics, derive_preferences,
                      item_pole_operators, rank_items_for_user, run_evaluation,
                      user_pref_operators)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def member_chains(tree, root):
    """Every attribute chain read off the variable `root`, outermost
    last: `ops.pref_to_user.matrix` gives ('pref_to_user', 'matrix').
    `getattr(root, "name")`, also when getattr is passed as a callable
    followed by its arguments, gives ('name',)."""
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            seq = [node.func, *node.args]
            for fn, obj, name in zip(seq, seq[1:], seq[2:]):
                if (isinstance(fn, ast.Name) and fn.id == "getattr"
                        and isinstance(obj, ast.Name) and obj.id == root
                        and isinstance(name, ast.Constant) and isinstance(name.value, str)):
                    chains.add((name.value,))
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == root:
            chains.add(tuple(reversed(chain)))
    return chains


def resolves(obj, chain) -> bool:
    for attr in chain:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def prefwalk_imports(tree) -> dict:
    """The names a source imports from prefwalk, and what they name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prefwalk"):
            module = importlib.import_module(node.module)
            names.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
    return names


def resolve(expr, scope):
    """What `name` or `name.attr...` refers to, for a name in scope;
    None for any other expression."""
    chain = []
    while isinstance(expr, ast.Attribute):
        chain.append(expr.attr)
        expr = expr.value
    if not (isinstance(expr, ast.Name) and expr.id in scope):
        return None
    obj = scope[expr.id]
    for attr in reversed(chain):
        obj = getattr(obj, attr)
    return obj


def prefwalk_calls(tree, scope):
    """(callable, positional args, keyword args, line) for every call of
    something in scope: direct calls, and `recorder.call(label, fn, *args)`,
    which calls fn with the rest."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = resolve(node.func, scope), node.args
        if (fn is None and isinstance(node.func, ast.Attribute) and node.func.attr == "call"
                and len(args) >= 2):
            fn, args = resolve(args[1], scope), args[2:]
        if fn is not None and callable(fn):
            yield fn, args, node.keywords, node.lineno


def binds(fn, args, keywords) -> bool:
    """Whether fn's signature accepts this many positional arguments and
    these keywords.  A starred argument may stand for up to 6 values."""
    sig = inspect.signature(fn)
    kw = {k.arg: None for k in keywords if k.arg is not None}
    fixed = sum(not isinstance(a, ast.Starred) for a in args)
    for extra in range(7) if fixed < len(args) else (0,):
        try:
            sig.bind(*[None] * (fixed + extra), **kw)
            return True
        except TypeError:
            pass
    return False


@pytest.fixture(scope="module")
def built():
    """Each variable name the benchmark reads members off, with the
    objects it can hold: `report` is an EvalReport in one workload and a
    DiagnosticsReport in another."""
    from prefwalk import build_restart, restart_vector, run_item_walk, run_user_walk

    ds = random_ratings(np.random.default_rng(5), n_users=6, n_items=7, min_per_user=3)
    store = derive_preferences(ds)
    graph = UserPrefGraph.from_store(store)
    ops = user_pref_operators(graph)
    poles, target = item_pole_operators(ds.n_items), first_warm_user(store)
    o = rank_items_for_user(ops, *poles, target, k=3)
    # the worker's `first` and `second` come from the iterates, as in its `_rank`
    first = run_user_walk(ops.pref_to_user, ops.user_to_pref, restart_vector(ops, target))
    second = run_item_walk(*poles, build_restart(first.concordances, ops.observed_ids,
                                                 ds.n_items))
    evaluated = run_evaluation(ds, [2], (1,), repetitions=1, min_test=1)
    built = {"ds": ds, "train": ds, "test": ds, "store": store, "graph": graph, "ops": ops,
             "o": o, "first": first, "second": second, "scored": o.scored}
    return {**{root: [obj] for root, obj in built.items()},
            "report": [evaluated, collect_diagnostics(graph, sample=2)]}


def _scope(tree, built):
    return {**{root: objs[0] for root, objs in built.items() if len(objs) == 1},
            **prefwalk_imports(tree)}


def test_sources_found():
    assert BENCH / "worker.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imported_names_exist(path):
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prefwalk"):
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name} imports {missing} from {node.module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_members_read_exist(path, built):
    tree = parsed(path)
    for root, objs in built.items():
        for chain in member_chains(tree, root):
            assert any(resolves(obj, chain) for obj in objs), (
                f"{path.name} reads {root}.{'.'.join(chain)}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_calls_fit_signatures(path, built):
    tree = parsed(path)
    for fn, args, keywords, line in prefwalk_calls(tree, _scope(tree, built)):
        assert binds(fn, args, keywords), (
            f"{path.name}:{line} calls {fn.__qualname__}{inspect.signature(fn)} with "
            f"{len(args)} positional arguments and keywords {[k.arg for k in keywords]}")


def test_worker_reads_what_it_needs(built):
    # the members named here are the ones the worker's counts, user
    # lists, outputs and walk statistics are computed from; make sure the
    # scan above saw them
    tree = parsed(BENCH / "worker.py")
    for root, chains in {
        "ops": [("observed_ids",), ("pref_support",), ("user_degrees",), ("pref_col_indptr",),
                ("pref_col_indices",), ("pref_to_user", "matrix"), ("user_to_pref", "matrix"),
                ("n_items",)],
        "store": [("total",)], "graph": [("user_degree",), ("n_users",)],
        "o": [("items",), ("scored", "scores")], "scored": [("scores",)],
        "first": [("concordances",), ("similarities",), ("iterations",), ("converged",),
                  ("residual",)],
        "second": [("iterations",), ("converged",), ("pref_mass",)],
        "report": [("cells",), ("cold_skipped",), ("users",)],
    }.items():
        seen = member_chains(tree, root)
        for chain in chains:
            assert chain in seen, (root, chain)
    store, graph, ops = (built[root][0] for root in ("store", "graph", "ops"))
    assert store.total == sum(store.count(u) for u in range(store.n_users))
    assert np.array_equal(store.observed_ids(), ops.observed_ids)
    assert [graph.user_degree(u) for u in range(graph.n_users)] == list(ops.user_degrees)
    for m in (ops.pref_to_user.matrix, ops.user_to_pref.matrix):
        assert all(isinstance(getattr(m, part), np.ndarray) for part in ("data", "indices", "indptr"))


def test_worker_calls_are_bound():
    # the calls the workloads time and check go through prefwalk callables;
    # make sure the signature scan above reached each of them
    tree = parsed(BENCH / "worker.py")
    called = {getattr(fn, "__name__", None) for fn, *_ in prefwalk_calls(tree, prefwalk_imports(tree))}
    for name in ("rank_items_for_user", "run_evaluation", "collect_diagnostics",
                 "run_user_walk", "run_item_walk", "build_restart", "restart_vector",
                 "score_items", "recommend_topk", "item_pole_operators", "user_pref_operators",
                 "derive_preferences", "load_ratings", "upl_split", "from_store",
                 "distinct_levels", "ndcg_at_k", "connectivity_report"):
        assert name in called, name
