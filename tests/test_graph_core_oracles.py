"""The one clique test, edge lister, one-vertex extension and line graph of
graph_core against pair scans and the routes they replaced, graph for graph
and map for map: every class up to 7 vertices, seeded random graphs, and
wall(t) with its wall and line-of-wall obstructions for t = 2..5."""

import random

from obslab.generators import basic_obstruction, cone, enumerate_graphs, random_graph, wall
from obslab.graph_core import edges_inside, is_clique, line_graph
from obslab.structures import contraption

from .graph_core_oracles import (
    clique_by_pairs,
    cone_by_edge_list,
    contraption_by_edge_list,
    edges_by_pairs,
    edges_by_shifting,
    line_graph_by_pairs,
)


def _corpus():
    for n in range(8):
        yield from enumerate_graphs(n)
    for seed in range(40):
        yield random_graph(5 + seed % 12, seed)
    for t in range(2, 6):
        yield wall(t)
        yield basic_obstruction(t, "wall")
        yield basic_obstruction(t, "line_of_wall")


def test_clique_test_and_edge_lister_match_the_pair_scan_on_every_mask():
    for n in range(7):
        for g in enumerate_graphs(n):
            for mask in range(1 << n):
                assert is_clique(g, mask) == clique_by_pairs(g, mask)
                assert edges_inside(g.adj, mask) == edges_by_pairs(g, mask)


def test_clique_test_and_edge_lister_match_the_pair_scan_on_seeded_masks():
    rng = random.Random(24)
    for seed in range(30):
        g = random_graph(10 + seed, seed, 3, 4)
        for _ in range(40):
            # sparse masks, so that some of them are cliques
            mask = 0
            for v in range(g.n):
                if rng.random() < 4 / g.n:
                    mask |= 1 << v
            assert is_clique(g, mask) == clique_by_pairs(g, mask)
            assert edges_inside(g.adj, mask) == edges_by_pairs(g, mask)


def test_primitives_match_the_routes_they_replaced():
    for g in _corpus():
        assert g.edges() == edges_by_shifting(g)
        assert line_graph(g) == line_graph_by_pairs(g)
        assert cone(g) == cone_by_edge_list(g)
        for z1, z2 in g.edges():
            assert contraption(g, z1, z2) == contraption_by_edge_list(g, z1, z2)
            assert contraption(g, z2, z1) == contraption_by_edge_list(g, z2, z1)
