"""The finder call's distance memo, balls grown only as far as asked
(detectors._Ball), against the distance arrays it replaced
(tests/deepening_oracles.py): the same floors, the same paths in the same
order, the same budget spent and the same distance searches started.  Then
the bounds read from the balls, which leave out each path's start, against
paths and holes found by brute force without a ball, the floors of theta
end pairs filed per cap against those the balls read one by one, and the
sweep behind them (detectors._meetings) against distance arrays."""

from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab import detectors as det
from obslab.errors import ScaleLimit
from obslab.generators import cycle, path_graph, random_graph
from obslab.graph_core import Graph, bits, mask_of

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


def _theta_floors_checked(g, part, ends):
    """The pairs of ends det._theta_pairs files per cap, each against the
    floor of its ask read by det._floor on a budget of its own, and every
    pair it never files against a floor of -1; the number of pairs filed
    from ends with more partners than neighbours, and from the others."""
    budget = det._Budget(10**6, "theta pairs")
    # a pair's floor is at most g.n, so the pairs end by cap g.n + 1
    caps = list(islice(det._theta_pairs(g, part, ends, budget), g.n + 2))
    assert len(caps) <= g.n + 1
    filed = {}
    for cap, pairs in enumerate(caps, 1):
        for bound, key in pairs:
            assert bound >= cap and key not in filed
            filed[key] = bound
    counts = [0, 0]
    for a in bits(ends):
        partners = ends >> (a + 1) << (a + 1) & ~g.adj[a]
        for z in bits(partners):
            ask = (a, z, part & ~(1 << a | 1 << z), 3)
            floor = det._floor(g, *ask, det._Budget(10**6, "floor"))
            assert filed.pop((a, z), -1) == floor
            if floor > 0:
                # the memo keeps it, for _anticomplete_paths to read
                assert budget.floors[ask] == floor
                counts[partners.bit_count() <= (g.adj[a] & part).bit_count()] += 1
    assert not filed
    return counts


@given(graphs(min_n=2, max_n=10), hst.data())
@settings(max_examples=200, deadline=None)
def test_theta_floors_filed_per_cap_are_exact(g, data):
    # an end with more partners than neighbours files its pairs from the
    # balls around its neighbours, grown one layer per cap; the others read
    # each pair's floor from the pair's own ball.  Both give exactly
    # _floor's answer, and a pair without a floor is never filed.
    mask = hst.integers(min_value=0, max_value=g.full_mask())
    part = data.draw(hst.one_of(hst.just(g.full_mask()), mask))
    ends = data.draw(hst.one_of(hst.just(part), mask)) & part
    _theta_floors_checked(g, part, ends)


def test_theta_floors_filed_per_cap_take_both_routes():
    # on seeded graphs of 10 vertices, every vertex an end: pairs are filed
    # from shared balls and from their own
    counts = [0, 0]
    for seed in range(40):
        g = random_graph(10, seed)
        counts = [a + b for a, b in zip(counts, _theta_floors_checked(g, g.full_mask(), g.full_mask()))]
    assert counts == [206, 541]


def test_theta_pairs_of_an_end_with_two_neighbours_are_never_filed():
    # end 0 has two neighbours in part and three partners, 3, 4 and 5, so
    # its pairs share the balls around its neighbours; two balls never meet
    # a partner three times, so the sweep wants nothing from them and ends
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    ends = 0b111001
    _theta_floors_checked(g, g.full_mask(), ends)
    budget = det._Budget(10**6, "theta pairs")
    caps = list(islice(det._theta_pairs(g, g.full_mask(), ends, budget), g.n + 2))
    assert len(caps) <= g.n + 1
    assert not [key for pairs in caps for _, key in pairs if key[0] == 0]
    # no ball around a neighbour of 0 is ever grown
    assert not [key for key in budget.balls if key[1] == g.full_mask() & ~1]


def test_meetings_of_groups_with_fewer_than_three_balls_are_empty():
    # groups of one and two balls want nothing, start no ball and end at
    # once, beside a group of three that meets vertex 2 of the path at
    # radius 2: ends 0 and 4 reach it at radius 2, end 1 at radius 1
    g = path_graph(5)
    full = g.full_mask()
    groups = {
        "one": (full, [(0, full)]),
        "two": (full, [(0, full), (4, full)]),
        "three": (1 << 2, [(0, full), (1, full), (4, full)]),
    }
    budget = det._Budget(10**6, "meetings")
    radii = list(islice(det._meetings(g, groups, lambda reach: reach, budget), g.n + 2))
    assert radii == [[], [], [("three", 2)]]
    assert sorted(budget.balls) == [(0, full), (1, full), (4, full)]


def _least_radii(g, groups, index):
    """{(name, target): r} for each wanted target that three distinct balls
    of its group reach, r the third least radius at which they do, read
    from the distance arrays of the balls."""
    out = {}
    for name, (wanted, balls) in groups.items():
        dists = [g.bfs_dist(end, mask) for end, mask in balls]
        for t in bits(wanted):
            near = [v for v in range(g.n) if index(1 << v) >> t & 1]
            reached = [[dist[v] for v in near if dist[v] >= 0] for dist in dists]
            radii = sorted(min(d) for d in reached if d)
            if len(radii) >= 3:
                out[name, t] = radii[2]
    return out


@given(graphs(min_n=1, max_n=10), hst.data())
@settings(max_examples=200, deadline=None)
def test_meetings_match_brute_force(g, data):
    # each wanted target comes once, at the least radius at which three
    # distinct balls of its group reach it, and a target that three never
    # reach never comes, under the identity index and under a coarser one
    # that maps v to v // 2, as the prism maps corners to triangles.
    # Groups of three balls start their last two late, and an end alone in
    # its mask ends its search at once, which drops targets.
    coarse = data.draw(hst.booleans())
    index = (lambda reach: mask_of(v // 2 for v in bits(reach))) if coarse else (lambda reach: reach)
    targets = index(g.full_mask())
    vertex = hst.integers(min_value=0, max_value=g.n - 1)
    mask = hst.one_of(hst.just(0), hst.just(g.full_mask()), hst.integers(min_value=0, max_value=g.full_mask()))
    groups = {}
    for name in range(data.draw(hst.integers(min_value=1, max_value=3))):
        size = data.draw(hst.one_of(hst.just(3), hst.integers(min_value=1, max_value=5)))
        ends = data.draw(hst.lists(vertex, min_size=min(size, g.n), max_size=min(size, g.n), unique=True))
        wanted = data.draw(hst.one_of(hst.just(targets), hst.integers(min_value=0, max_value=targets)))
        groups[name] = (wanted, [(end, data.draw(mask) | 1 << end) for end in ends])
    budget = det._Budget(10**6, "meetings")
    # every ball ends by radius g.n - 1, so the sweep ends by radius g.n
    radii = list(islice(det._meetings(g, groups, index, budget), g.n + 2))
    assert len(radii) <= g.n + 1
    met = {}
    for r, pairs in enumerate(radii):
        for name, t in pairs:
            assert (name, t) not in met
            met[name, t] = r
    assert met == _least_radii(g, groups, index)


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
