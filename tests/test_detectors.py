import itertools
from contextlib import nullcontext

import pytest
from hypothesis import given, settings

from obslab import detectors as det
from obslab.errors import InvalidInput, ScaleLimit
from obslab.generators import (
    basic_obstruction,
    complete,
    complete_bipartite,
    cone,
    cycle,
    k_tree_random,
    path_graph,
    random_digraph,
    random_graph,
    wall,
)
from obslab.graph_core import Digraph, Graph, atoms, bits, induces, is_clique, line_graph
from obslab.rng import SplitMix

from .atom_oracles import whole_graph
from .conftest import graphs
from .deepening_oracles import balls_through_src, distance_arrays, spent
from .subset_oracles import even_hole_by_subsets, set_relation


def _oracle_even_hole(g):
    """Subset scan written independently of the detector internals."""
    for size in range(4, g.n + 1, 2):
        for sub in itertools.combinations(range(g.n), size):
            deg = {v: sum(1 for u in sub if g.has_edge(u, v)) for v in sub}
            if any(d != 2 for d in deg.values()):
                continue
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                v = frontier.pop()
                for u in sub:
                    if u not in seen and g.has_edge(u, v):
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == size:
                return True
    return False


def test_chordal_and_holes():
    ok, order = det.is_chordal(complete(4))
    assert ok and sorted(order) == [0, 1, 2, 3]
    assert det.is_chordal(cycle(4))[0] is False
    w = det.find_hole(cycle(4))
    assert w is not None and det.validate_witness(cycle(4), w)
    assert det.find_hole(complete(4)) is None
    for seed in range(8):
        g = k_tree_random(2, 4 + seed, seed)
        assert det.is_chordal(g)[0]


def test_even_hole_cases():
    assert det.find_even_hole(cycle(4)) is not None
    assert det.find_even_hole(cycle(5)) is None
    w = det.find_even_hole(complete_bipartite(2, 3))
    assert w is not None and len(w.vertices) == 4
    assert det.find_even_hole(cone(path_graph(3))) is None  # diamond


@given(graphs(max_n=12))
@settings(max_examples=60, deadline=None)
def test_even_hole_matches_oracle(g):
    w = det.find_even_hole(g)
    assert (w is not None) == _oracle_even_hole(g)
    if w is not None:
        assert det.validate_witness(g, w)
        # shortest first: as small as the first even hole of the subset scan
        assert len(w.vertices) == len(even_hole_by_subsets(g).vertices)


def test_theta_needs_a_claw_centre():
    # line graphs are claw-free, so no vertex can be a theta end and no
    # search node is spent
    g = basic_obstruction(3, "line_of_wall", seed=SplitMix(29).next_u64())
    assert det.find_hole(g) is not None
    assert det.find_theta(g, guard=128, budget=0) is None


def test_theta_cases():
    w = det.find_theta(complete_bipartite(2, 3))
    assert w is not None and det.validate_witness(complete_bipartite(2, 3), w)
    assert det.find_theta(complete(4)) is None
    assert det.find_theta(complete(5)) is None
    assert det.find_theta(cycle(6)) is None


def _random_theta(seed):
    """A standalone theta with seeded path lengths."""
    rng = SplitMix(seed)
    lens = [2 + rng.below(3) for _ in range(3)]
    edges = []
    nxt = 2
    for ln in lens:
        prev = 0
        for _ in range(ln - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(nxt, edges)


def test_every_theta_has_even_hole():
    for seed in range(200):
        g = _random_theta(seed)
        w = det.find_theta(g)
        assert w is not None and det.validate_witness(g, w)
        h = det.find_even_hole(g)
        assert h is not None and det.validate_witness(g, h)


def test_prism_cases():
    lg, _ = line_graph(complete_bipartite(2, 3))
    w = det.find_prism(lg)
    assert w is not None and det.validate_witness(lg, w)
    assert det.find_prism(complete(5)) is None
    assert det.find_prism(cycle(6)) is None
    k33 = complete(3)
    prism6 = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    w = det.find_prism(prism6)
    assert w is not None and det.validate_witness(prism6, w)


def _prism_witness(triangles, paths):
    verts = {v for seq in (*triangles, *paths) for v in seq}
    return det.Witness("prism", tuple(sorted(verts)), {}, (("triangles", triangles), ("paths", paths)))


def test_prism_witness_paths_share_no_vertex():
    # paths (0,6,3) and (1,6,4) both pass through 6; every listed edge is present
    g = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 6), (6, 3), (1, 6), (6, 4), (2, 5)]
    )
    w = _prism_witness(((0, 1, 2), (3, 4, 5)), ((0, 6, 3), (1, 6, 4), (2, 5)))
    assert not det.validate_witness(g, w)


def test_prism_witness_has_three_paths():
    prism6 = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    w = _prism_witness(((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 4), (2, 5)))
    assert det.validate_witness(prism6, w)
    w = _prism_witness(((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 4), (2, 5), (0, 3)))
    assert not det.validate_witness(prism6, w)


# Each table below pins the work of the route before the balls of floors and
# path searches left out the path's start (deepening_oracles.
# balls_through_src), which names its cases.  The *_NOW table beside it pins
# the finders' own work on the same graphs, which finds the same witnesses
# with never more search nodes.


def _routes(now, through_src):
    """(route, pins): the finders' route, then the one through the path's
    start."""
    return ((nullcontext, now), (balls_through_src, through_src))


# finder, obstruction kind, then the distance searches started and search
# nodes needed on the t=4 obstruction of SplitMix(1)'s first seed: first by
# the finder, then by the plain cap-deepening route, in which every
# induced-path search made its own Graph.bfs_dist call
# (tests/deepening_oracles.py).  The prism's 64 are 59 of the 66 corner
# balls of its 22 triangles, the rest never started before the witness's
# cap, and 5 floors.
_PINNED_WORK = [
    (det.find_prism, "line_of_wall", 64, 21, 13_859, 1_407),  # n=123
    (det.find_theta, "wall", 205, 1_114, 3_841, 11_671),  # n=112
]
# the theta starts more distance searches: its balls leave out the first
# end, so each pair of ends grows its own ball
_PINNED_NOW = {det.find_prism: (64, 21), det.find_theta: (235, 24)}


def _counted_searches(monkeypatch) -> list:
    """The (end, mask) of every distance search the finders start from now
    on: one per entry of a finder call's distance memo, however far its
    ball grows.  Graph.layers calls are not what is counted, since atoms
    reaches them through component_mask."""
    made = []

    class Counted(det._Ball):
        def __init__(self, g, *key):
            made.append(key)
            super().__init__(g, *key)

    monkeypatch.setattr(det, "_Ball", Counted)
    return made


def _counted_expansions(monkeypatch) -> list:
    """One entry for every breadth-first frontier that Graph.layers expands
    from now on, whoever asked for the next layer."""
    made = []
    layers = Graph.layers

    def counted(self, *args):
        for frontier in layers(self, *args):
            yield frontier
            made.append(frontier)

    monkeypatch.setattr(Graph, "layers", counted)
    return made


@pytest.mark.parametrize("finder,kind,calls_src,nodes_src,plain_calls,plain_nodes", _PINNED_WORK)
def test_three_path_search_work_is_pinned(
    finder, kind, calls_src, nodes_src, plain_calls, plain_nodes, monkeypatch
):
    g = basic_obstruction(4, kind, seed=SplitMix(1).next_u64())
    made = _counted_searches(monkeypatch)
    found = []
    for route, (calls, nodes) in _routes(_PINNED_NOW[finder], (calls_src, nodes_src)):
        made.clear()
        with route():
            w = finder(g, guard=128, budget=nodes)
            assert w is not None and det.validate_witness(g, w)
            assert len(made) == calls and 10 * calls <= plain_calls
            assert nodes < plain_nodes
            with pytest.raises(ScaleLimit):
                finder(g, guard=128, budget=nodes - 1)
        found.append((w, nodes))
    (w, nodes), (w_src, nodes_src) = found
    assert w == w_src and nodes <= nodes_src


# finder, obstruction kind and search nodes on the t=4 obstruction of
# SplitMix(1)'s first seed (as above), then the breadth-first frontiers
# expanded: by the finder, whose balls grow only as far as a floor or a cap
# asks, then by the distance arrays it kept before, each distance search run
# to exhaustion (tests/deepening_oracles.py).  Each obstruction is one atom
# and is searched whole, as in _HOLE_WORK below.
_EXPANSION_WORK = [
    (det.find_prism, "line_of_wall", 21, 700, 1_561),  # n=123
    (det.find_theta, "wall", 1_114, 2_156, 4_498),  # n=112
    (det.find_even_hole, "line_of_wall", 1_743, 635, 1_237),  # n=123
]
# The theta expands more frontiers for fewer search nodes: its balls leave
# out the first end, so each pair of ends grows its own ball, and deeper.
# On the array side each hole pair's floor ball also runs to exhaustion.
_EXPANSION_NOW = {
    det.find_prism: (21, 699, 1_559),
    det.find_theta: (24, 4_184, 5_239),
    det.find_even_hole: (170, 448, 1_702),
}


@pytest.mark.parametrize("finder,kind,nodes_src,grown_src,exhausted_src", _EXPANSION_WORK)
def test_balls_grow_only_as_far_as_asked(
    finder, kind, nodes_src, grown_src, exhausted_src, monkeypatch
):
    g = basic_obstruction(4, kind, seed=SplitMix(1).next_u64())
    made = _counted_expansions(monkeypatch)
    found = []
    pins_src = (nodes_src, grown_src, exhausted_src)
    for route, (nodes, grown, exhausted) in _routes(_EXPANSION_NOW[finder], pins_src):
        made.clear()
        with whole_graph(), route():
            w = finder(g, guard=128, budget=nodes)
            assert len(made) == grown
            made.clear()
            with distance_arrays():
                assert finder(g, guard=128, budget=nodes) == w
            assert len(made) == exhausted
        assert w is not None and det.validate_witness(g, w)
        found.append((w, nodes))
    (w, nodes), (w_src, nodes_src) = found
    assert w == w_src and nodes <= nodes_src


def test_prism_screens_only_the_pairs_that_fit():
    # on the t=10 line graph of a wall, seed 1 (n=753), searched whole: the
    # prism reads 24 radii from its balls (corner screens and floors) and
    # expands 4,098 breadth-first frontiers, since a triangle pair is
    # screened only at the cap where the last corner of the first triangle
    # meets the second.  Reading every screen before the first cap
    # (deepening_oracles.eager_screens) took 282,504 reads and 26,380
    # frontiers for the same witness and 17 search nodes.
    g = basic_obstruction(10, "line_of_wall", seed=1)
    with whole_graph():
        w, nodes, _, reads, frontiers = spent(det.find_prism, g, guard=g.n)
    assert w is not None and det.validate_witness(g, w)
    assert (nodes, reads, frontiers) == (17, 24, 4_098)


def _wheel_free_clique_sum():
    """C5s, C7s and triangles glued on vertices and edges (n=29): a wheel has
    no clique cutset, so it would lie inside one piece, and none has a hub."""
    pieces = [(5, ()), (3, (0, 1)), (7, (5,)), (3, (6, 7)), (5, (7, 12))]
    pieces += [(3, (2, 3)), (7, (16,)), (3, (14,)), (5, (23, 24)), (3, (20, 21))]
    return _clique_sum(pieces)


# finder, graph (the t=4 obstruction of SplitMix(1)'s first seed, or the
# clique sum above), whether it holds the structure, then the distance
# searches started (Graph.bfs_dist calls for the old route) and search nodes
# needed: first by the finder on the whole graph, which reads each hole once,
# then by the per-root cycle DFS it replaced, which read each hole in both
# directions (tests/hole_oracles.py).  The
# obstruction is one atom; the clique sum is searched whole here, as it was
# before the finders went atom by atom.
_HOLE_WORK = [
    (det.find_even_wheel, "clique_sum", False, 15, 2_620, 29, 8_100),  # n=29
    (det.find_even_hole, "line_of_wall", True, 60, 1_743, 123, 5_018),  # n=123
]
_HOLE_NOW = {det.find_even_wheel: (15, 1_590), det.find_even_hole: (60, 170)}


@pytest.mark.parametrize(
    "finder,kind,found,calls_src,nodes_src,dfs_calls,dfs_nodes", _HOLE_WORK
)
def test_hole_stream_work_is_pinned(
    finder, kind, found, calls_src, nodes_src, dfs_calls, dfs_nodes, monkeypatch
):
    if kind == "clique_sum":
        g = _wheel_free_clique_sum()
    else:
        g = basic_obstruction(4, kind, seed=SplitMix(1).next_u64())
    made = _counted_searches(monkeypatch)
    seen = []
    for route, (calls, nodes) in _routes(_HOLE_NOW[finder], (calls_src, nodes_src)):
        made.clear()
        with whole_graph(), route():
            w = finder(g, guard=128, budget=nodes)
            assert (w is not None) == found and (w is None or det.validate_witness(g, w))
            assert len(made) == calls < dfs_calls and 2 * nodes <= dfs_nodes
            with pytest.raises(ScaleLimit):
                finder(g, guard=128, budget=nodes - 1)
        seen.append((w, nodes))
    (w, nodes), (w_src, nodes_src) = seen
    assert w == w_src and nodes <= nodes_src


# finder, then the distance searches started and search nodes needed on the
# clique sum above: atom by atom, then on the whole graph.  Its atoms are
# C5s, C7s and triangles.  The triangles are cliques and are not searched;
# a hole has no claw centre, no two disjoint triangles and no vertex of
# degree >= 4, so only the even-hole search reads a hole.
_ATOM_WORK = [
    (det.find_even_hole, 5, 16, 15, 1_360),
    (det.find_theta, 0, 0, 21, 1_349),
    (det.find_prism, 0, 0, 11, 0),
    (det.find_even_wheel, 0, 0, 15, 2_620),
]
_ATOM_NOW = {
    det.find_even_hole: (5, 5, 15, 816),
    det.find_theta: (0, 0, 12, 394),
    det.find_prism: (0, 0, 11, 0),
    det.find_even_wheel: (0, 0, 15, 1_590),
}


@pytest.mark.parametrize("finder,calls_src,nodes_src,whole_calls_src,whole_nodes_src", _ATOM_WORK)
def test_atom_route_work_is_pinned(
    finder, calls_src, nodes_src, whole_calls_src, whole_nodes_src, monkeypatch
):
    g = _wheel_free_clique_sum()
    made = _counted_searches(monkeypatch)
    pins_src = (calls_src, nodes_src, whole_calls_src, whole_nodes_src)
    for route, (calls, nodes, whole_calls, whole_nodes) in _routes(_ATOM_NOW[finder], pins_src):
        made.clear()
        with route():
            with whole_graph():
                assert finder(g, guard=128, budget=whole_nodes) is None
            assert len(made) == whole_calls
            made.clear()
            assert finder(g, guard=128, budget=nodes) is None
            assert len(made) == calls
            if nodes:
                with pytest.raises(ScaleLimit):
                    finder(g, guard=128, budget=nodes - 1)
    _, nodes, _, whole_nodes = _ATOM_NOW[finder]
    assert nodes <= nodes_src and whole_nodes <= whole_nodes_src


def _glued_to_c5(n, edges):
    """The graph on n vertices with these edges, glued at vertex 0 to a C5."""
    ring = (0, n, n + 1, n + 2, n + 3)
    return Graph.from_edges(n + 4, [*edges, *zip(ring, ring[1:] + ring[:1])])


# the cube minus a vertex: even holes, four claw centres and no theta
_CUBE_MINUS_VERTEX = [(0, 5), (0, 6), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)]
# two triangles joined by three paths of length 2, the middles of two of
# them adjacent: two disjoint triangles and no prism
_CHORDED_PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
_CHORDED_PRISM += [(0, 6), (6, 3), (1, 7), (7, 4), (2, 8), (8, 5), (6, 7)]
# a C5 and a hub on all of it: one hole and an odd wheel
_ODD_WHEEL = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]

# finder, graph glued to a C5 (two atoms, the C5 and the graph, neither
# holding the structure), then the distance searches started and search nodes
# needed.  Cap deepening and hole lengths stop at the size of the atom
# searched; going on up to g.n would spend the nodes of the last caps again
# and grow paths for holes longer than the atom.  Six of the prism's 13
# searches are the corner balls of its one triangle pair, which screen out
# no candidate here.
_TWO_ATOM_WORK = [
    (det.find_theta, 7, _CUBE_MINUS_VERTEX, 11, 44),
    (det.find_prism, 9, _CHORDED_PRISM, 13, 8),
    (det.find_even_wheel, 6, _ODD_WHEEL, 5, 21),
]
# Six of the prism's 11 are still its corner balls.  The theta's balls leave
# out the first end, so its end pairs share one ball fewer.
_TWO_ATOM_NOW = {det.find_theta: (12, 44), det.find_prism: (11, 8), det.find_even_wheel: (5, 21)}


@pytest.mark.parametrize("finder,n,edges,calls_src,nodes_src", _TWO_ATOM_WORK)
def test_two_atom_work_is_pinned(finder, n, edges, calls_src, nodes_src, monkeypatch):
    g = _glued_to_c5(n, edges)
    assert len(atoms(g)) == 2 and det.find_hole(g) is not None
    made = _counted_searches(monkeypatch)
    for route, (calls, nodes) in _routes(_TWO_ATOM_NOW[finder], (calls_src, nodes_src)):
        made.clear()
        with route():
            assert finder(g, budget=nodes) is None
            assert len(made) == calls
            with pytest.raises(ScaleLimit):
                finder(g, budget=nodes - 1)
    assert _TWO_ATOM_NOW[finder][1] <= nodes_src


def test_even_wheel_cases():
    w = det.find_even_wheel(cone(cycle(4)))
    assert w is not None and det.validate_witness(cone(cycle(4)), w)
    assert det.find_even_wheel(cone(cycle(5))) is None
    assert det.find_even_wheel(wall(3)) is None
    w = det.find_even_wheel(cone(cycle(6)))
    assert w is not None and w.detail_map()["hub"] == 6


def test_clique_and_biclique():
    assert det.find_clique(complete(5), 5) is not None
    assert det.find_clique(complete(5), 6) is None
    assert det.find_clique(cycle(5), 3) is None
    w = det.find_induced_biclique(cycle(4), 2, 2)
    assert w is not None and det.validate_witness(cycle(4), w)
    assert det.find_induced_biclique(cone(path_graph(3)), 2, 2) is None
    with pytest.raises(InvalidInput):
        det.find_clique(complete(3), 0)


def test_membership_cases():
    assert det.membership_E_t(cycle(7), 3) is None
    w = det.membership_E_t(complete(4), 4)
    assert w is not None and w.kind == "clique"
    w = det.membership_E_t(cycle(4), None)
    assert w is not None and w.kind == "biclique"


def test_scale_guard():
    big = complete(70)
    with pytest.raises(ScaleLimit):
        det.find_even_hole(big)
    with pytest.raises(ScaleLimit):
        det.find_theta(big, guard=64)


def test_chordal_inputs_spend_no_budget():
    # every hole-based structure contains a hole, so chordality alone
    # certifies absence: not one search node may be spent
    for seed in range(3):
        g = k_tree_random(3, 60, seed)
        for finder in (det.find_even_hole, det.find_even_wheel, det.find_theta, det.find_prism):
            assert finder(g, budget=0) is None


def _clique_sum(pieces):
    """Cycles (size > 3) and cliques, each glued on its listed shared clique
    of what is built so far, the rest of its vertices new."""
    edges = set()
    n = 0
    for size, shared in pieces:
        verts = [*shared, *range(n, n + size - len(shared))]
        n += size - len(shared)
        if size > 3:
            pairs = [(verts[i], verts[(i + 1) % size]) for i in range(size)]
        else:
            pairs = list(itertools.combinations(verts, 2))
        edges.update((min(p), max(p)) for p in pairs)
    return Graph.from_edges(n, sorted(edges))


def test_even_wheel_absence_is_one_pass():
    # no atom of the clique sum has a vertex of degree >= 4, so absence is
    # certified without a search node; on the whole graph one pass over the
    # holes takes 1,590 (pinned above)
    g = _wheel_free_clique_sum()
    assert g.n == 29 and det.find_hole(g) is not None
    assert det.find_even_wheel(g, budget=0) is None
    with whole_graph():
        assert det.find_even_wheel(g, budget=10_000) is None


def test_atoms_certify_absence_without_search_nodes():
    # a 3-tree's atoms are all cliques, a wall has no vertex of degree 4 and
    # the line graph of a wall no claw centre, so each finder answers inside
    # its atoms before any path is grown, and the guard still applies to the
    # whole graph
    for seed in range(3):
        g = k_tree_random(3, 60, seed)
        assert all(is_clique(g, part) for part in atoms(g))
        for finder in (det.find_even_hole, det.find_even_wheel, det.find_theta, det.find_prism):
            assert finder(g, budget=0) is None
    assert det.find_even_wheel(wall(6), guard=100, budget=0) is None
    g = basic_obstruction(3, "line_of_wall", seed=SplitMix(29).next_u64())
    assert det.find_theta(g, guard=128, budget=0) is None
    with pytest.raises(ScaleLimit):
        det.find_even_hole(cycle(70))


def test_long_hole_is_grown_on_the_search_stack():
    # the hole is one induced path through all 1,000 vertices: the node
    # budget, not the interpreter's recursion limit, bounds how deep it grows
    g = cycle(1000)
    w = det.find_even_hole(g, guard=1000)
    assert w is not None and w.vertices == tuple(range(1000)) and det.validate_witness(g, w)


def test_large_clique_is_grown_on_the_search_stack():
    g = complete(1000)
    w = det.find_clique(g, 1000, guard=1000)
    assert w is not None and w.vertices == tuple(range(1000)) and det.validate_witness(g, w)


def test_long_induced_copy_is_placed_on_the_search_stack():
    # one search node per placed pattern vertex, far past the interpreter's
    # recursion limit
    p = path_graph(1100)
    emb = det.contains_induced(p, p, guard=1100)
    assert emb is not None and sorted(emb.values()) == list(range(1100))
    assert induces(p, [emb[v] for v in range(1100)], ((emb[u], emb[v]) for u, v in p.edges()))


def test_long_chain_is_grown_on_the_search_stack():
    # the transitive tournament 0 -> 1 -> ... -> 1099, every forward arc present
    n = 1100
    full = (1 << n) - 1
    d = Digraph(n, tuple(full ^ ((2 << v) - 1) for v in range(n)), tuple((1 << v) - 1 for v in range(n)))
    assert det.acyclic_tournament_or_stable(d, n, 2, guard=n) == ("tournament", tuple(range(n)))


def test_even_wheel_needs_a_hub_of_degree_four():
    # walls are full of holes but have maximum degree 3, so no hole is read
    for t in (4, 6):
        assert det.find_even_wheel(wall(t), guard=100, budget=0) is None


def test_k_tree_checks():
    diamond = cone(path_graph(3))
    assert det.is_k_tree(diamond, 2) and det.is_k_forest(diamond, 2)
    assert not det.is_k_forest(complete(4), 2)
    assert not det.is_k_tree(cycle(5), 2)
    assert det.is_k_tree(complete(3), 2)
    assert not det.is_k_tree(complete_bipartite(2, 3), 2)
    gem = cone(path_graph(4))
    assert det.is_k_tree(gem, 2)


def test_contains_induced_cases():
    assert det.contains_induced(complete(4), complete(3)) is not None
    emb = det.contains_induced(cycle(6), path_graph(4))
    assert emb is not None
    vs = [emb[i] for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        assert cycle(6).has_edge(vs[i], vs[j]) == (abs(i - j) == 1)
    assert det.contains_induced(wall(2), cycle(4)) is None
    w = det.find_even_hole(wall(2))
    assert w is not None and len(w.vertices) > 4  # girth exceeds four
    with pytest.raises(InvalidInput):
        det.contains_induced(complete(3), complete(4))


@given(graphs(min_n=1, max_n=7), graphs(min_n=1, max_n=4))
@settings(max_examples=60, deadline=None)
def test_contains_induced_matches_exhaustive(g, h):
    if h.n > g.n:
        g, h = h, g
    emb = det.contains_induced(g, h)
    brute = False
    for sub in itertools.permutations(range(g.n), h.n):
        if all(
            g.has_edge(sub[a], sub[b]) == h.has_edge(a, b)
            for a, b in itertools.combinations(range(h.n), 2)
        ):
            brute = True
            break
    assert (emb is not None) == brute
    if emb is not None:
        for a, b in itertools.combinations(range(h.n), 2):
            assert g.has_edge(emb[a], emb[b]) == h.has_edge(a, b)


def test_clique_or_stable():
    tag, w = det.find_clique_or_stable(complete(4), 3, 5)
    assert tag == "clique" and det.validate_witness(complete(4), w)
    tag, w = det.find_clique_or_stable(Graph(3, (0, 0, 0)), 2, 3)
    assert tag == "stable"
    tag, w = det.find_clique_or_stable(complete(2), 3, 2)
    assert tag == "neither" and w is None  # below the guarantee threshold


@pytest.mark.parametrize("c, s", [(0, 2), (2, 0), (-1, 3), (3, -1)])
def test_ramsey_primitives_reject_sizes_below_one(c, s):
    # with c = -1 the chain search would never stop early: on the complete
    # 10-vertex digraph it walked every chain
    every_arc = Digraph.from_arcs(10, itertools.permutations(range(10), 2))
    with pytest.raises(InvalidInput, match=f"size s must be >= 1, got c={c}, s={s}"):
        det.find_clique_or_stable(complete(3), c, s)
    with pytest.raises(InvalidInput, match=f"chain length c and stable set size s .* got c={c}, s={s}"):
        det.acyclic_tournament_or_stable(every_arc, c, s)


def test_ramsey_thresholds_are_never_raised_in_full():
    assert det.capped_power(3, 2, 9) == 9
    assert det.capped_power(3, 3, 9) > 9
    assert det.capped_power(1, 10**18, 5) == 1
    assert det.capped_power(2, 10**18, 64) > 64
    # below c**s and c**(c**s) with s = 1000: the powers have 478 and about
    # 10**477 digits, and neither is computed
    assert det.find_clique_or_stable(complete(2), 3, 1000) == ("neither", None)
    assert det.acyclic_tournament_or_stable(Digraph.from_arcs(5, [(0, 1)]), 3, 1000) == ("neither", None)


def _first_stable(g, s):
    return next((c for c in itertools.combinations(range(g.n), s) if induces(g, c, ())), None)


def test_ramsey_stable_sets_are_the_first_in_combinations_order():
    rng = SplitMix(47)
    stable = 0
    for _ in range(150):
        g = random_graph(4 + rng.below(9), rng.next_u64(), 1 + rng.below(9), 10)
        c, s = 2 + rng.below(3), 2 + rng.below(3)
        tag, w = det.find_clique_or_stable(g, c, s)
        if tag != "neither":
            assert w.kind == tag and det.validate_witness(g, w)
        if tag == "stable":
            stable += 1
            assert w.vertices == _first_stable(g, s)
        d = random_digraph(4 + rng.below(9), rng.next_u64(), 1 + rng.below(9), 10)
        tag, got = det.acyclic_tournament_or_stable(d, c, s)
        if tag == "stable":
            stable += 1
            underlying = Graph.from_edges(d.n, {tuple(sorted((u, v))) for u in range(d.n) for v in bits(d.out[u])})
            assert det.validate_witness(underlying, det.Witness("stable", got)) and got == _first_stable(underlying, s)
    assert stable > 30


def test_anticomplete_family():
    matching = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    sets = [[0, 1], [2, 3], [4, 5]]
    assert det.anticomplete_family(matching, sets, 3) == [0, 1, 2]
    tangled = complete(4)
    assert det.anticomplete_family(tangled, [[0], [1]], 2) is None
    with pytest.raises(InvalidInput):
        det.anticomplete_family(matching, [[0, 1], [1, 2]], 1)


def test_anticomplete_family_planted():
    rng = SplitMix(4)
    n = 60
    sets = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(20)]
    # noise: tangle the first fifteen triples pairwise, keep the last five clean
    edges = [(0, 1), (1, 2)]
    for a in range(15):
        for b in range(a + 1, 15):
            if rng.chance(2, 3):
                edges.append((3 * a + rng.below(3), 3 * b + rng.below(3)))
    g = Graph.from_edges(n, edges)
    got = det.anticomplete_family(g, sets, 5)
    assert got is not None and len(got) == 5
    for a, b in itertools.combinations(got, 2):
        assert set_relation(g, sets[a], sets[b]) == "anticomplete"


def test_acyclic_tournament_or_stable():
    trans = Digraph.from_arcs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    tag, chain = det.acyclic_tournament_or_stable(trans, 4, 2)
    assert tag == "tournament" and chain == (0, 1, 2, 3)
    arcless = Digraph.from_arcs(3, [])
    tag, stab = det.acyclic_tournament_or_stable(arcless, 2, 3)
    assert tag == "stable" and len(stab) == 3
    rng = SplitMix(9)
    for _ in range(60):
        d = random_digraph(16, rng.next_u64(), 1 + rng.below(9), 10)
        tag, _ = det.acyclic_tournament_or_stable(d, 2, 2)
        assert tag != "neither"


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=60, deadline=None)
def test_witnesses_revalidate(g):
    for finder in (det.find_hole, det.find_even_hole, det.find_theta, det.find_prism, det.find_even_wheel):
        w = finder(g)
        if w is not None:
            assert det.validate_witness(g, w)


def test_deterministic_witnesses():
    rng = SplitMix(2)
    for _ in range(20):
        g = random_graph(9, rng.next_u64(), 1, 2)
        assert det.find_even_hole(g) == det.find_even_hole(g)
        assert det.find_theta(g) == det.find_theta(g)
