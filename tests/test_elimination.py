"""The one perfect elimination order behind chordality, k-forests, k-trees
and the crystallized-vertex walk, against the earlier routes and a subset
scan for holes."""

from itertools import combinations

from hypothesis import given, settings

from obslab import detectors as det
from obslab import extractors as ext
from obslab.generators import enumerate_graphs, k_tree_random
from obslab.graph_core import Graph, bits, is_clique, mask_of
from obslab.structures import crystallized_sides

from .conftest import graphs
from .elimination_oracles import (
    is_chordal_by_search,
    is_k_forest_by_cliques,
    is_k_tree_by_peeling,
    is_perfect_elimination,
)
from .subset_oracles import is_cycle_subset


def _has_hole_by_subsets(g: Graph) -> bool:
    return any(
        is_cycle_subset(g, sub, mask_of(sub)) is not None
        for size in range(4, g.n + 1)
        for sub in combinations(range(g.n), size)
    )


def _lowest_simplicial_first(g: Graph, order: list[int]) -> bool:
    """Each vertex of order is the lowest-index vertex of what is left whose
    remaining neighbors form a clique, and order covers every vertex."""
    left = g.full_mask()
    for v in order:
        simplicial = [u for u in bits(left) if is_clique(g, bits(g.adj[u] & left))]
        if not simplicial or simplicial[0] != v:
            return False
        left ^= 1 << v
    return left == 0


def _check(g: Graph) -> None:
    chordal, order = det.is_chordal(g)
    assert chordal == is_chordal_by_search(g)
    assert chordal != _has_hole_by_subsets(g)
    assert (order is not None) == chordal
    assert order == det.perfect_elimination_order(g)
    if chordal:
        assert is_perfect_elimination(g, order)
        assert _lowest_simplicial_first(g, order)
    for k in range(1, 5):
        assert det.is_k_forest(g, k) == is_k_forest_by_cliques(g, k)
        assert det.is_k_tree(g, k) == is_k_tree_by_peeling(g, k)


def test_elimination_agrees_with_oracles_on_every_class_up_to_seven():
    for n in range(8):
        for g in enumerate_graphs(n):
            _check(g)


@given(graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_elimination_agrees_with_oracles_up_to_twelve(g):
    _check(g)


def test_k_trees_take_the_same_checks():
    # chordal inputs on up to 11 vertices, which random graphs rarely are
    for k in range(1, 5):
        for seed in range(6):
            g = k_tree_random(k, k + 2 + seed, seed)
            assert det.is_k_tree(g, k)
            _check(g)


def test_crystallized_vertex_on_a_long_two_tree():
    # deeper than the interpreter's default recursion limit allows a
    # recursive peel to go
    g = k_tree_random(2, 1100, 7)
    z, (z1, z2, s1, s2) = ext.find_crystallized_vertex(g)
    assert crystallized_sides(g, z, z1, z2) == (s1, s2)


def test_crystallized_vertex_eliminates_once(monkeypatch):
    calls = []
    order = det.perfect_elimination_order

    def counted(g):
        calls.append(g.n)
        return order(g)

    # counted under either module's name, so a second route through either shows
    for module in (det, ext):
        monkeypatch.setattr(module, "perfect_elimination_order", counted, raising=False)
    for n, seed in ((4, 0), (9, 1), (40, 2)):
        calls.clear()
        ext.find_crystallized_vertex(k_tree_random(2, n, seed))
        assert calls == [n]
