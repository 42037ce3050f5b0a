"""The finder call's distance memo, balls grown only as far as asked
(detectors._Ball), against the distance arrays it replaced
(tests/deepening_oracles.py): the same floors, the same paths in the same
order, the same budget spent and the same distance searches started.  Then
the bounds read from the balls, which leave out each path's start, against
paths and holes found by brute force without a ball."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab import detectors as det
from obslab.errors import ScaleLimit
from obslab.generators import cycle, path_graph
from obslab.graph_core import Graph, bits

from .conftest import graphs
from .deepening_oracles import DistanceBudget, cycles_without_floors, floor, induced_paths


def _run(asks, g, nodes):
    """Each ask answered on one budget, by the balls and by the arrays: the
    answers (those before the budget ran out), whether it ran out, the nodes
    left and the distance searches started."""
    routes = []
    for budget, floor_of, paths_of, memo in (
        (det._Budget(nodes, "balls"), det._floor, det._induced_paths, "balls"),
        (DistanceBudget(nodes, "arrays"), floor, induced_paths, "dists"),
    ):
        out = []
        try:
            for ask in asks:
                if ask[0] == "floor":
                    out.append(floor_of(g, *ask[1:], budget))
                else:
                    out.append([])
                    for p in paths_of(g, *ask[1:], budget):
                        out[-1].append(p)
        except ScaleLimit:
            out.append("out of nodes")
        routes.append((out, budget.left, len(getattr(budget, memo))))
    assert routes[0] == routes[1]
    return routes[0][0]


@hst.composite
def _asks(draw, g):
    """Up to five floor and path questions whose (ends, pool) pairs repeat
    often, so that later asks reuse and grow earlier balls; a floor asks for
    1 to 4 paths."""
    vertex = hst.integers(min_value=0, max_value=g.n - 1)
    pair = hst.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    pool = hst.integers(min_value=0, max_value=g.full_mask())
    pair = hst.sampled_from(draw(hst.lists(pair, min_size=1, max_size=3)))
    pool = hst.sampled_from(draw(hst.lists(pool, min_size=1, max_size=3)))
    cap = hst.integers(min_value=1, max_value=g.n + 1)
    asks = []
    for _ in range(draw(hst.integers(min_value=1, max_value=5))):
        src, dst = draw(pair)
        if draw(hst.booleans()):
            asks.append(("floor", src, dst, draw(pool), draw(hst.integers(min_value=1, max_value=4))))
        else:
            asks.append(("paths", src, dst, draw(pool), draw(cap)))
    return asks


@given(graphs(min_n=2, max_n=12), hst.data())
@settings(max_examples=150, deadline=None)
def test_balls_match_distance_arrays(g, data):
    nodes = data.draw(hst.one_of(hst.just(10**6), hst.integers(min_value=1, max_value=40)))
    _run(data.draw(_asks(g)), g, nodes)


def _paths_by_brute_force(g, src, dst, allowed, cap):
    """Every src-dst path of length 2..cap with its interior in allowed
    minus the ends and no edge among its vertices but its own and src-dst,
    depth first with lower vertices first: no distance is read."""
    pool = set(bits(allowed)) - {src, dst}
    out = []

    def extend(path):
        for v in g.neighbors(path[-1]):
            if v in pool and v not in path and not any(g.has_edge(v, u) for u in path[:-1]):
                if g.has_edge(v, dst):
                    out.append((*path, v, dst))
                else:
                    extend([*path, v])

    extend([src])
    return [p for p in out if len(p) - 1 <= cap]


@given(graphs(min_n=2, max_n=9), hst.data())
@settings(max_examples=200, deadline=None)
def test_distance_bounds_are_sound(g, data):
    # the balls leave out the path's start, so they read true distances in
    # what the rest of the path may use; every path still comes out, in
    # the same order, and both floors are lower bounds: in fact exact, as
    # a shortest path inside the pool plus both ends is induced
    vertex = hst.integers(min_value=0, max_value=g.n - 1)
    src, dst = data.draw(hst.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]))
    allowed = data.draw(hst.integers(min_value=0, max_value=g.full_mask()))
    cap = data.draw(hst.integers(min_value=1, max_value=g.n + 1))
    budget = det._Budget(10**6, "bounds")
    paths = list(det._induced_paths(g, src, dst, allowed, cap, budget))
    assert paths == _paths_by_brute_force(g, src, dst, allowed, cap)
    every = _paths_by_brute_force(g, src, dst, allowed, g.n)
    floor = det._floor(g, src, dst, allowed, 1, budget)
    assert all(len(p) - 1 >= floor for p in paths)
    if not g.has_edge(src, dst):
        assert floor == min((len(p) - 1 for p in every), default=-1)
    else:
        # the hole pair's floor, as _cycles reads it: 2 plus the least
        # radius of root's ball that holds a pool neighbour of a
        pool, ball = det._to_dst(g, src, dst, allowed, budget)
        d = ball.radius_holding(g.adj[src] & pool, 1)
        assert min((len(p) for p in every), default=-1) == (d + 2 if d >= 0 else -1)


@given(graphs(min_n=0, max_n=9))
@settings(max_examples=100, deadline=None)
def test_hole_floors_skip_no_hole(g):
    # _cycles skips a (root, a) pair at the lengths below its floor: the
    # same holes in the same order as every pair searched at every length,
    # its paths found without a ball
    lengths = range(4, g.n + 1)
    budget = det._Budget(10**6, "holes")
    holes = list(det._cycles(g, g.full_mask(), lengths, budget))
    with mock.patch.object(det, "_induced_paths", lambda g, *ask: _paths_by_brute_force(g, *ask[:4])):
        assert list(cycles_without_floors(g, g.full_mask(), lengths, budget)) == holes


# graph, then the asks and their answers; 5 is out of reach of the path
# 0-1-2-3-4 and of the C5 0-1-2-3-4-0
_CASES = [
    # an unreachable end: no floor, no path
    (path_graph(5), [("floor", 0, 5, 0b111110, 1)], [-1]),
    (path_graph(5), [("paths", 0, 5, 0b111110, 6)], [[]]),
    # adjacent ends: the edge is the one path, and the hole through it the rest
    (cycle(5), [("floor", 0, 1, 0b11110, 2), ("floor", 0, 1, 0b11110, 1)], [-1, 1]),
    (cycle(5), [("paths", 0, 1, 0b11100, 4), ("paths", 0, 1, 0b11100, 3)], [[(0, 4, 3, 2, 1)], []]),
    # a length cap below the distance, then at it, on one memo entry
    (path_graph(5), [("paths", 0, 4, 0b1110, 3), ("paths", 0, 4, 0b1110, 4)], [[], [(0, 1, 2, 3, 4)]]),
    (path_graph(5), [("floor", 0, 4, 0b1110, 1), ("paths", 0, 4, 0b1110, 1)], [4, []]),
]


@pytest.mark.parametrize("g,asks,answers", _CASES)
def test_balls_at_the_edges(g, asks, answers):
    g = Graph(6, g.adj + (0,) * (6 - g.n))
    assert _run(asks, g, 100) == answers
