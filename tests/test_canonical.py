"""The canonical form against an independent permutation-minimum oracle."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab.generators import canonical_key, enumerate_graphs, k_tree_random
from obslab.graph_core import Graph

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


def extensions(n: int):
    """Every one-vertex extension of the classes on n - 1 vertices."""
    new = 1 << (n - 1)
    for g in enumerate_graphs(n - 1):
        for nb in range(new):
            adj = tuple(a | new if nb >> v & 1 else a for v, a in enumerate(g.adj))
            yield Graph(n, adj + (nb,))


def same_partition(cands) -> bool:
    ours: dict = {}
    theirs: dict = {}
    for i, g in enumerate(cands):
        ours.setdefault(canonical_key(g), set()).add(i)
        theirs.setdefault(perm_min_key(g), set()).add(i)
    return sorted(map(sorted, ours.values())) == sorted(map(sorted, theirs.values()))


def test_partition_matches_oracle_up_to_six_vertices():
    for n in range(2, 7):
        assert same_partition(list(extensions(n))), n


def test_partition_matches_oracle_on_seven_vertex_sample():
    # the full 9984 seven-vertex candidates take the oracle minutes
    assert same_partition(list(extensions(7))[::100])


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
