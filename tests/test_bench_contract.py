"""The benchmark under perfbench/ drives the package by name.  These
checks read its sources with `ast` and fail when a change removes or
renames a function it imports or a member it reads, so a refactor cannot
break the benchmark unnoticed."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from helpers import random_ratings

from prefwalk import UserPrefGraph, derive_preferences, user_pref_operators

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def member_chains(tree, root):
    """Every attribute chain read off the variable `root`, outermost
    last: `ops.pref_to_user.matrix` gives ('pref_to_user', 'matrix')."""
    chains = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == root:
            chains.add(tuple(reversed(chain)))
    return chains


@pytest.fixture(scope="module")
def built():
    ds = random_ratings(np.random.default_rng(5), n_users=6, n_items=7, min_per_user=3)
    store = derive_preferences(ds)
    graph = UserPrefGraph.from_store(store)
    return {"ds": ds, "train": ds, "test": ds, "store": store, "graph": graph,
            "ops": user_pref_operators(graph)}


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
    for root, obj in built.items():
        for chain in member_chains(tree, root):
            target = obj
            for attr in chain:
                assert hasattr(target, attr), f"{path.name} reads {root}.{'.'.join(chain)}"
                target = getattr(target, attr)


def test_worker_reads_what_it_needs(built):
    # the members named here are the ones the worker's counts and user
    # lists are computed from; make sure the scan above saw them
    chains = member_chains(parsed(BENCH / "worker.py"), "ops")
    chains |= member_chains(parsed(BENCH / "worker.py"), "store")
    chains |= member_chains(parsed(BENCH / "worker.py"), "graph")
    for chain in [("observed_ids",), ("pref_support",), ("user_degrees",), ("pref_col_indptr",),
                  ("pref_col_indices",), ("pref_to_user", "matrix"), ("user_to_pref", "matrix"),
                  ("total",), ("user_degree",), ("n_users",)]:
        assert chain in chains, chain
    store, graph, ops = built["store"], built["graph"], built["ops"]
    assert store.total == sum(store.count(u) for u in range(store.n_users))
    assert np.array_equal(store.observed_ids(), ops.observed_ids)
    assert [graph.user_degree(u) for u in range(graph.n_users)] == list(ops.user_degrees)
    for m in (ops.pref_to_user.matrix, ops.user_to_pref.matrix):
        assert all(isinstance(getattr(m, part), np.ndarray) for part in ("data", "indices", "indptr"))
