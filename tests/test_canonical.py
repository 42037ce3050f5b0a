"""The canonical form against an independent permutation-minimum oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab import generators
from obslab.generators import canonical_key, enumerate_graphs, k_tree_enumerate, k_tree_random
from obslab.graph_core import Graph

from . import canonical_oracles as oracle
from .conftest import graphs


def perm_min_key(g: Graph) -> tuple[int, int]:
    """(n, smallest edge bitmask over all n! relabellings), pairs numbered in
    lexicographic order; exact but factorial, so only for small n."""
    pair = {e: k for k, e in enumerate(itertools.combinations(range(g.n), 2))}
    best = None
    for perm in itertools.permutations(range(g.n)):
        mask = 0
        for u, v in g.edges():
            a, b = sorted((perm[u], perm[v]))
            mask |= 1 << pair[(a, b)]
        if best is None or mask < best:
            best = mask
    return g.n, best


def same_partition(cands) -> bool:
    ours: dict = {}
    theirs: dict = {}
    for i, g in enumerate(cands):
        ours.setdefault(canonical_key(g), set()).add(i)
        theirs.setdefault(perm_min_key(g), set()).add(i)
    return sorted(map(sorted, ours.values())) == sorted(map(sorted, theirs.values()))


def test_partition_matches_oracle_up_to_six_vertices():
    for n in range(2, 7):
        assert same_partition(list(oracle.extensions(n))), n


def test_partition_matches_oracle_on_seven_vertex_sample():
    # the full 9984 seven-vertex candidates take the oracle minutes
    assert same_partition(list(oracle.extensions(7))[::100])


def test_enumeration_matches_every_extension():
    # the degree and twin rules skip extensions only when another one has
    # the same key: same classes, same order
    for n in range(2, 8):
        assert enumerate_graphs(n) == oracle.classes(n), n


@pytest.mark.parametrize("k, n", [(2, 9), (3, 10)])
def test_k_tree_enumerate_matches_every_clique(k, n):
    # the kept candidate of each key is the same graph, adjacency and order
    assert list(k_tree_enumerate(k, n)) == oracle.k_trees(k, n)


def test_refine_matches_oracle_partition(monkeypatch):
    # every refinement canonical_key asks for, individualised ones included
    refine = generators._refine
    seen = []

    def checked(g, cells):
        out = refine(g, cells)
        assert out == oracle.refine(g, cells)
        seen.append(len(out))
        return out

    monkeypatch.setattr(generators, "_refine", checked)
    for n in range(2, 7):
        for g in oracle.extensions(n):
            canonical_key(g)
    for g in list(oracle.extensions(7))[::100]:
        canonical_key(g)
    assert len(seen) > 1_400 and min(seen) < max(seen)


def _counted_keys(monkeypatch) -> list:
    """The graphs of every canonical_key call made from now on, with the
    enumeration cache emptied."""
    made = []
    key = generators.canonical_key

    def counted(g):
        made.append(g)
        return key(g)

    monkeypatch.setattr(generators, "canonical_key", counted)
    monkeypatch.setattr(generators, "_ISO_CACHE", {})
    return made


def test_enumeration_key_calls_are_pinned(monkeypatch):
    made = _counted_keys(monkeypatch)
    for n in range(1, 8):
        enumerate_graphs(n)
    assert len(made) == 2_088
    made.clear()
    for n in range(2, 8):
        oracle.classes(n)
    assert len(made) == 11_290


@pytest.mark.parametrize("k, n, calls, every_clique", [(2, 9, 596, 707), (3, 10, 1_181, 1_439)])
def test_k_tree_key_calls_are_pinned(k, n, calls, every_clique, monkeypatch):
    made = _counted_keys(monkeypatch)
    list(k_tree_enumerate(k, n))
    assert len(made) == calls
    made.clear()
    oracle.k_trees(k, n)
    assert len(made) == every_clique


def test_class_representatives_sorted_by_key():
    for n in range(1, 8):
        keys = [canonical_key(g) for g in enumerate_graphs(n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_key_distinguishes_vertex_counts():
    assert canonical_key(Graph(0, ())) != canonical_key(Graph(1, (0,)))
    assert canonical_key(Graph(2, (0, 0))) != canonical_key(Graph(3, (0, 0, 0)))


@given(graphs(max_n=12), hst.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_key_invariant_under_relabelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(g) == canonical_key(g.relabel(perm))


@given(
    hst.integers(min_value=1, max_value=4),
    hst.integers(min_value=0, max_value=12),
    hst.integers(min_value=0, max_value=10**6),
    hst.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_k_tree_key_invariant_under_relabelling(k, n, seed, rnd):
    g = k_tree_random(k, max(n, k), seed)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(g) == canonical_key(g.relabel(perm))
