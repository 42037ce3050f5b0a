import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab import generators
from obslab.detectors import (
    contains_induced,
    find_clique,
    is_chordal,
    is_k_forest,
    is_k_tree,
)
from obslab.errors import InvalidInput
from obslab.generators import (
    CrystalSpec,
    basic_obstruction,
    complete,
    complete_bipartite,
    cone,
    crystal_graph,
    cycle,
    double_star,
    enumerate_graphs,
    k_tree_enumerate,
    k_tree_random,
    path_graph,
    plant_crystal,
    plant_phantom,
    plant_phantom_in,
    seeded_subdivision,
    tree_T,
    wall,
)
from obslab.graph_core import MAX_VERTICES, bits, mask_of
from obslab.structures import validate_crystal, validate_phantom


def test_complete_and_biclique():
    assert complete(1).n == 1 and complete(1).m == 0
    assert complete_bipartite(1, 1) == complete(2)
    assert complete(5).m == 10


@pytest.mark.parametrize(
    "build,args",
    [
        (complete, (MAX_VERTICES + 1,)),
        (complete, (10**15,)),
        (complete_bipartite, (MAX_VERTICES, 1)),
        (cycle, (10**15,)),
        (path_graph, (MAX_VERTICES + 1,)),
        (double_star, (MAX_VERTICES, 1)),
        (tree_T, (10, 10)),
        (tree_T, (1, 10**15)),
        (crystal_graph, (CrystalSpec(1, ((MAX_VERTICES, 1),)),)),
        (wall, (100,)),
        (k_tree_random, (2, MAX_VERTICES + 1, 0)),
        (plant_phantom_in, (complete(3), (0, 1, 2), 4_000, 1)),
        (plant_crystal, (MAX_VERTICES, 1)),
    ],
)
def test_vertex_count_is_capped_before_any_edge(build, args, monkeypatch):
    # every edge list is built from range(); forbid it, so an unchecked count
    # fails here instead of allocating
    def forbidden(*_):
        raise AssertionError("edge list built before the vertex count was checked")

    monkeypatch.setattr(generators, "range", forbidden, raising=False)
    with pytest.raises(InvalidInput, match="vertex count"):
        build(*args)


def test_cone_cases():
    assert cone(path_graph(3)).m == 5  # diamond
    empty = complete(1)
    from obslab.graph_core import Graph

    assert cone(Graph(0, ())) == Graph(1, (0,))
    gem = cone(path_graph(4))
    assert gem.n == 5 and gem.m == 7


def test_double_star():
    g, mid = double_star(1, 1)
    assert mid == (0, 1)
    assert contains_induced(g, path_graph(4)) is not None and g.n == 4
    g, _ = double_star(2, 1)
    assert g.n == 5
    assert g.degree(0) == 3 and g.degree(1) == 2
    with pytest.raises(InvalidInput):
        double_star(1, 0)


@pytest.mark.parametrize(
    "d,r,count",
    [(3, 0, 1), (3, 1, 4), (2, 3, 15), (1, 4, 5), (3, 2, 13)],
)
def test_tree_T_counts(d, r, count):
    g, root = tree_T(d, r)
    assert g.n == count
    assert root == 0
    # all leaves at distance exactly r
    dist = g.bfs_dist(root)
    leaves = [v for v in range(g.n) if g.degree(v) <= 1 and (v != root or r == 0)]
    if r >= 1:
        assert g.degree(root) == d
        assert all(dist[v] == r for v in leaves)


def test_crystal_graph_shapes():
    gem = crystal_graph(CrystalSpec(1, ((1, 1),)))
    assert contains_induced(gem, cone(path_graph(4))) is not None and gem.n == 5
    with pytest.raises(InvalidInput):
        CrystalSpec(1, ((1, 0),))
    two = crystal_graph(CrystalSpec(2, ((1, 1), (1, 1))))
    assert is_k_forest(two, 2)
    assert two.n == 2 + 2 * 3


def test_crystal_graph_chordal_k4_free():
    for k in (1, 2, 3):
        for arms in ((1, 1), (2, 3), (3, 2)):
            g = crystal_graph(CrystalSpec(k, (arms,) * k))
            assert is_chordal(g)[0]
            assert find_clique(g, 4) is None


def test_wall_shape():
    with pytest.raises(InvalidInput):
        wall(0)
    for t in (1, 2, 3, 4):
        g = wall(t)
        # the elementary brick at t=1 is a plain six-cycle; every larger wall
        # carries branch vertices
        assert max(g.degree(v) for v in range(g.n)) == (2 if t == 1 else 3)
        assert all(g.degree(v) in (2, 3) for v in range(g.n))
        # bipartite: two-color by BFS
        color = {0: 0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in color:
                    color[u] = 1 - color[v]
                    stack.append(u)
        assert all(color[u] != color[v] for u, v in g.edges())


def test_basic_obstruction_kinds():
    assert basic_obstruction(3, "complete") == complete(4)
    assert basic_obstruction(3, "biclique") == complete_bipartite(3, 3)
    w = basic_obstruction(3, "wall", seed=0)
    assert w.n > wall(3).n
    lw = basic_obstruction(3, "line_of_wall", seed=0)
    assert lw.n == basic_obstruction(3, "wall", seed=0).m
    with pytest.raises(InvalidInput):
        basic_obstruction(3, "mystery")


def test_seeded_subdivision_is_deterministic():
    g = wall(2)
    assert seeded_subdivision(g, 7) == seeded_subdivision(g, 7)
    assert seeded_subdivision(g, 7) != seeded_subdivision(g, 8)


def test_k_tree_random_small():
    assert k_tree_random(2, 3, 123) == complete(3)
    diamond = cone(path_graph(3))
    for seed in (0, 1, 2):
        g = k_tree_random(2, 4, seed)
        assert contains_induced(g, diamond) is not None and g.n == 4
    with pytest.raises(InvalidInput):
        k_tree_random(2, 1, 0)


def test_k_tree_enumerate_uniqueness_at_four():
    found = list(k_tree_enumerate(2, 4))
    assert len(found) == 1
    assert contains_induced(found[0], cone(path_graph(3))) is not None


def test_k_tree_enumerate_counts():
    # unlabeled 2-trees: 1, 1, 2, 5, 12 for n = 3..7 and 136 for n = 9
    for n, count in ((3, 1), (4, 1), (5, 2), (6, 5), (7, 12), (9, 136)):
        assert len(list(k_tree_enumerate(2, n))) == count


@given(hst.integers(min_value=1, max_value=3), hst.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_k_tree_random_invariants(k, seed):
    n = k + seed % 9
    if n < k:
        n = k
    g = k_tree_random(k, n, seed)
    assert is_k_tree(g, k)
    assert is_k_forest(g, k)


def test_enumerate_graphs_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, count in expected.items():
        assert len(enumerate_graphs(n)) == count


def test_plant_phantom_minimal():
    host, p = plant_phantom(complete(2), 2, 1)
    assert validate_phantom(host, p) is None
    assert p.layers[0] == frozenset({0, 1})
    gamma = p.gamma_at(1)[(0, 1)]
    assert len(gamma) == 2
    assert all(host.has_edge(w, 0) and host.has_edge(w, 1) for w in gamma)
    assert host.n == 4  # base pair plus the two fresh common neighbors
    host, p = plant_phantom(complete(2), 2, 0)
    assert p.r == 0 and host == complete(2)


def test_plant_phantom_is_capped_level_by_level():
    # from a triangle with d = 2 the levels reach 9, 39, 189, 939 and 4,689
    # vertices; the sixth would pass the cap and is never built
    assert plant_phantom(complete(3), 2, 5)[0].n == 4_689
    with pytest.raises(InvalidInput, match="vertex count"):
        plant_phantom(complete(3), 2, 8)


@pytest.mark.parametrize("d,r", [(2, 1), (2, 2), (3, 2), (4, 1)])
def test_plant_phantom_layer_recurrence(d, r):
    host, p = plant_phantom(complete(2), d, r, seed=3)
    assert validate_phantom(host, p) is None
    for i in range(1, p.r + 1):
        below = mask_of(p.layers[i - 1])
        m = sum(
            1
            for u in bits(below)
            for v in bits(host.adj[u] & below)
            if v > u
        )
        assert len(p.layers[i]) == len(p.layers[i - 1]) + d * m
    assert host.n == len(p.layers[-1])


def test_plant_phantom_coned_validates():
    host, p = plant_phantom(complete(3), 2, 2, seed=9, density="coned")
    assert validate_phantom(host, p) is None


def test_plant_crystal():
    host, c = plant_crystal(1, 1)
    assert validate_crystal(host, c) is None
    host, c = plant_crystal(2, 2, noise_seed=0)
    assert validate_crystal(host, c) is None
    with pytest.raises(InvalidInput):
        plant_crystal(1, 0)
