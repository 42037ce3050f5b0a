import pytest
from hypothesis import given, settings

from obslab.errors import ScaleLimit
from obslab.generators import (
    _brick_wall,
    complete,
    complete_bipartite,
    cycle,
    k_tree_random,
    path_graph,
    random_graph,
    wall,
)
from obslab.graph_core import Graph, induced_subgraph, subdivide_all
from obslab.rng import SplitMix
from obslab.treewidth import (
    TreeDecomposition,
    from_pace,
    to_pace,
    treewidth_exact,
    tw_lower,
    tw_upper,
    verify_decomposition,
)

from .conftest import brute_force_treewidth, graphs


def test_exact_on_named_graphs():
    assert treewidth_exact(complete(5))[0] == 4
    assert treewidth_exact(complete_bipartite(3, 3))[0] == 3
    assert treewidth_exact(path_graph(7))[0] == 1
    assert treewidth_exact(cycle(9))[0] == 2
    assert treewidth_exact(Graph(1, (0,)))[0] == 0
    assert treewidth_exact(Graph(0, ()))[0] == -1


def test_exact_guard():
    with pytest.raises(ScaleLimit):
        treewidth_exact(complete(30), guard=22)


@given(graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_exact_matches_brute_force(g):
    width, td = treewidth_exact(g)
    assert width == brute_force_treewidth(g)
    assert verify_decomposition(g, td) is None
    assert td.width == width


@given(graphs(min_n=1, max_n=9))
@settings(max_examples=40, deadline=None)
def test_sandwich_and_certification(g):
    width, td = treewidth_exact(g)
    assert tw_lower(g) <= width <= tw_upper(g)[0]
    assert verify_decomposition(g, td) is None


def test_bounds_examples():
    assert tw_lower(complete(6)) == 5
    assert tw_upper(complete(6))[0] == 5
    assert tw_lower(cycle(9)) == 2
    assert tw_upper(cycle(9))[0] == 2
    lo = tw_lower(wall(5))
    hi, td = tw_upper(wall(5))
    assert lo >= 2
    assert hi >= lo
    assert verify_decomposition(wall(5), td) is None


def test_monotone_under_induced_subgraphs():
    rng = SplitMix(11)
    for _ in range(15):
        g = random_graph(8, rng.next_u64(), 1, 2)
        w, _ = treewidth_exact(g)
        keep = [v for v in range(g.n) if rng.below(2)]
        sub, _ = induced_subgraph(g, keep)
        assert treewidth_exact(sub)[0] <= w


def test_subdivision_invariance_small():
    rng = SplitMix(5)
    for _ in range(12):
        g = random_graph(6, rng.next_u64(), 1, 3)
        if g.m == 0 or g.n + g.m > 16:
            continue
        w, _ = treewidth_exact(g)
        ws, _ = treewidth_exact(subdivide_all(g))
        assert ws == w


def test_chordal_optimality_on_k_trees():
    for seed in range(10):
        for k in (1, 2, 3):
            g = k_tree_random(k, k + 2 + seed % 5, seed)
            assert treewidth_exact(g)[0] == k


def test_verify_decomposition_violations():
    k3 = complete(3)
    good = TreeDecomposition((frozenset({0, 1, 2}),), ())
    assert verify_decomposition(k3, good) is None
    assert good.width == 2
    bad = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    v = verify_decomposition(k3, bad)
    assert v is not None and v.axiom == "edge-coverage"
    missing = TreeDecomposition((frozenset({0, 1}),), ())
    assert verify_decomposition(k3, missing).axiom == "vertex-coverage"
    redundant = TreeDecomposition(
        (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})),
        ((0, 1), (1, 2)),
    )
    assert verify_decomposition(k3, redundant) is None  # still a valid path
    torn = TreeDecomposition(
        (frozenset({0, 1, 2}), frozenset({1}), frozenset({0, 1, 2})),
        ((0, 1), (1, 2)),
    )
    assert verify_decomposition(k3, torn).axiom == "connectivity"
    loop = TreeDecomposition((frozenset({0, 1, 2}), frozenset({0})), ((0, 0),))
    assert verify_decomposition(k3, loop).axiom == "tree-shape"


def test_wall_calibration():
    # the raw brick wall with h rows and h columns of bricks has treewidth
    # h + 1, which is why wall(t) takes t - 1 rows; wall(1) is a six-cycle
    for h in (1, 2):
        assert treewidth_exact(_brick_wall(h, h))[0] == h + 1
    assert treewidth_exact(wall(1))[0] == 2
    assert treewidth_exact(wall(2))[0] == 2
    assert treewidth_exact(wall(3))[0] == 3


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=40, deadline=None)
def test_pace_round_trip(g):
    _, td = treewidth_exact(g)
    text = to_pace(td, g.n)
    td2, n2 = from_pace(text)
    assert td2 == td and n2 == g.n
    assert to_pace(td2, n2) == text
