"""Clique-cutset atoms: the decomposition against a brute-force oracle, and
every atom-by-atom search against the whole-graph route it replaced."""

from itertools import combinations

from hypothesis import given, settings

from obslab import detectors as det
from obslab.generators import basic_obstruction, cone, cycle, enumerate_graphs, random_graph
from obslab.graph_core import Graph, atoms, bits, subdivide
from obslab.rng import SplitMix
from obslab.treewidth import treewidth_exact, tw_lower, tw_upper, verify_decomposition

from .atom_oracles import has_clique_cutset, whole_graph
from .conftest import graphs
from .subset_oracles import even_hole_by_subsets
from .test_acceptance import ACCEPT_SEED

FINDERS = (det.find_even_hole, det.find_theta, det.find_prism, det.find_even_wheel)


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_atoms_match_their_definition(g):
    parts = atoms(g)
    assert atoms(g) is parts  # computed once per graph
    covered = 0
    for p in parts:
        covered |= p
    assert covered == g.full_mask()
    assert all(any(p >> u & 1 and p >> v & 1 for p in parts) for u, v in g.edges())
    assert not any(has_clique_cutset(g, p) for p in parts)
    for p, q in combinations(parts, 2):
        meet = p & q
        assert all(g.has_edge(u, v) for u, v in combinations(bits(meet), 2))
        assert meet not in (p, q)  # no atom holds another


def test_obstructions_are_single_atoms():
    # the criterion-4 corpus: the searches there take the whole-graph route
    rng = SplitMix(ACCEPT_SEED + 4)
    for _ in range(20):
        s = rng.next_u64()
        for t in (3, 4):
            for kind in ("biclique", "wall", "line_of_wall"):
                g = basic_obstruction(t, kind, seed=s)
                assert atoms(g) == (g.full_mask(),)


def _sum(first: Graph, second: Graph, shared: list[tuple[int, int]]) -> Graph:
    """first and second glued on a clique: second's vertex j becomes first's
    vertex i for each (i, j) in shared, and its other vertices are numbered
    after first's."""
    label = dict((j, i) for i, j in shared)
    for j in range(second.n):
        if j not in label:
            label[j] = first.n + j - sum(1 for _, k in shared if k < j)
    edges = list(first.edges()) + [(label[u], label[v]) for u, v in second.edges()]
    return Graph.from_edges(first.n + second.n - len(shared), edges)


def _theta(l1: int, l2: int, l3: int) -> Graph:
    """Ends 0 and 1 joined by paths of lengths l1, l2, l3."""
    k23 = Graph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    return subdivide(k23, {(0, 2): l1 - 2, (0, 3): l2 - 2, (0, 4): l3 - 2})


def _prism(l1: int, l2: int, l3: int) -> Graph:
    """Triangles 0,1,2 and 3,4,5 matched by paths of lengths l1, l2, l3."""
    six = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    return subdivide(six, {(0, 3): l1 - 1, (1, 4): l2 - 1, (2, 5): l3 - 1})


def _size(w) -> int:
    """The length the search orders by: the cycle's, else the longest path's."""
    d = w.detail_map()
    return len(d["cycle"]) if "cycle" in d else max(len(p) for p in d["paths"]) - 1


# finder, a longer and a shorter copy of its structure, the clique they share
TWINS = [
    (det.find_even_hole, cycle(8), cycle(6), [(3, 0)]),
    (det.find_even_hole, cycle(6), cycle(6), [(2, 0), (3, 1)]),
    (det.find_theta, _theta(3, 3, 4), _theta(2, 2, 2), [(5, 2)]),
    (det.find_theta, _theta(2, 3, 3), _theta(2, 2, 3), [(0, 0), (2, 2)]),
    (det.find_prism, _prism(2, 2, 2), _prism(1, 1, 1), [(0, 0), (1, 1)]),
    (det.find_prism, _prism(1, 2, 2), _prism(1, 1, 2), [(6, 0)]),
    (det.find_even_wheel, cone(cycle(8)), cone(cycle(6)), [(2, 0)]),
]
# Each twin both ways round, so the atom searched first holds the longer
# copy in one of them: the finders must merge the atoms' witnesses by key.
TWIN_SUMS = [
    (finder, g, short)
    for finder, long, short, shared in TWINS
    for g in (_sum(long, short, shared), _sum(short, long, [(j, i) for i, j in shared]))
]


# Two prisms on one shared triangle 0,1,2, their other triangles 3,6,7 and
# 4,5,8 interleaved: the first in search order is the one whose other
# triangle comes first sorted, not the one whose matched corners do.
SHARED_TRIANGLE = Graph.from_edges(
    9,
    [(0, 1), (1, 2), (0, 2), (3, 6), (6, 7), (3, 7), (4, 5), (5, 8), (4, 8)]
    + [(0, 7), (1, 6), (2, 3), (0, 4), (1, 5), (2, 8)],
)


def _differential_graphs():
    for n in range(7):
        yield from enumerate_graphs(n)
    rng = SplitMix(41)
    for _ in range(240):
        n = 8 + rng.below(9)
        yield random_graph(n, rng.next_u64(), 1 + rng.below(2), 5 + rng.below(4))
    yield from (g for _, g, _ in TWIN_SUMS)
    yield SHARED_TRIANGLE


def _key(w):
    return None if w is None else w.detail


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_small_graphs_match_the_whole_graph_route(g):
    got = [_key(f(g)) for f in FINDERS]
    width, td = treewidth_exact(g)
    assert verify_decomposition(g, td) is None and td.width == width
    with whole_graph():
        assert got == [_key(f(g)) for f in FINDERS]
        assert treewidth_exact(g)[0] == width


def test_finders_match_the_whole_graph_route():
    split = 0
    for g in _differential_graphs():
        split += len(atoms(g)) > 1
        got = [_key(f(g)) for f in FINDERS]
        with whole_graph():
            assert got == [_key(f(g)) for f in FINDERS], g.edges()
    assert split > 300


def test_even_holes_match_the_subset_scan_up_to_seven_vertices():
    # every class on at most seven vertices, against the exhaustive subset
    # scan: the same answer, and an even hole as short as the scan's first
    for n in range(8):
        for g in enumerate_graphs(n):
            w, scan = det.find_even_hole(g), even_hole_by_subsets(g)
            assert (w is None) == (scan is None)
            assert w is None or len(w.vertices) == len(scan.vertices)


def test_twin_sums_take_the_shorter_copy():
    for finder, g, short in TWIN_SUMS:
        assert len(atoms(g)) == 2
        assert _size(finder(g)) == _size(finder(short))


def test_treewidth_matches_the_whole_graph_route():
    rng = SplitMix(43)
    glued = 0
    for _ in range(300):
        g = random_graph(8 + rng.below(7), rng.next_u64(), 1, 4 + rng.below(3))
        w, td = treewidth_exact(g)
        assert verify_decomposition(g, td) is None and td.width == w
        with whole_graph():
            assert treewidth_exact(g)[0] == w
        # the sandwich left open and more than one atom: the widths were glued
        glued += tw_lower(g) < tw_upper(g)[0] and len(atoms(g)) > 1
    assert glued > 60
