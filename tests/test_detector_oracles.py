"""Oracle checks: each path-growing detector against an independent search,
either a pattern library built on the induced-subgraph matcher or a subset
scan."""

from itertools import combinations

from hypothesis import given, settings

from obslab import detectors as det
from obslab.generators import basic_obstruction, enumerate_graphs, random_graph
from obslab.graph_core import Graph, mask_of
from obslab.rng import SplitMix

from .conftest import graphs
from .deepening_oracles import prism_by_deepening, theta_by_deepening
from .hole_oracles import even_hole_by_cycles, even_wheel_by_cycles, hole_by_shortest_path
from .subset_oracles import even_hole_by_subsets, is_cycle_subset


def _theta_patterns(max_n=8):
    """All theta graphs on at most max_n vertices, each with its longest chain
    length: two ends joined by three chains of chosen lengths >= 2."""
    out = []
    for l1 in range(2, max_n):
        for l2 in range(l1, max_n):
            for l3 in range(l2, max_n):
                n = 2 + (l1 - 1) + (l2 - 1) + (l3 - 1)
                if n > max_n:
                    continue
                edges = []
                nxt = 2
                for ln in (l1, l2, l3):
                    prev = 0
                    for _ in range(ln - 1):
                        edges.append((prev, nxt))
                        prev = nxt
                        nxt += 1
                    edges.append((prev, 1))
                out.append((l3, Graph.from_edges(n, edges)))
    return out


def _prism_patterns(max_n=8):
    """All prisms on at most max_n vertices, each with its longest chain
    length: two triangles matched by three chains of chosen lengths >= 1."""
    out = []
    for l1 in range(1, max_n):
        for l2 in range(l1, max_n):
            for l3 in range(l2, max_n):
                n = 6 + (l1 - 1) + (l2 - 1) + (l3 - 1)
                if n > max_n:
                    continue
                edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
                nxt = 6
                for i, ln in enumerate((l1, l2, l3)):
                    prev = i
                    for _ in range(ln - 1):
                        edges.append((prev, nxt))
                        prev = nxt
                        nxt += 1
                    edges.append((prev, 3 + i))
                out.append((l3, Graph.from_edges(n, edges)))
    return out


THETAS = _theta_patterns()
PRISMS = _prism_patterns()


@given(graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_theta_matches_pattern_library(g):
    found = det.find_theta(g)
    oracle = any(
        p.n <= g.n and det.contains_induced(g, p) is not None for _, p in THETAS
    )
    assert (found is not None) == oracle
    if found is not None:
        assert det.validate_witness(g, found)


@given(graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_prism_matches_pattern_library(g):
    found = det.find_prism(g)
    oracle = any(
        p.n <= g.n and det.contains_induced(g, p) is not None for _, p in PRISMS
    )
    assert (found is not None) == oracle
    if found is not None:
        assert det.validate_witness(g, found)


def _shortest_contained(g, patterns):
    """Smallest longest-chain length over the patterns g contains, or None."""
    lengths = [l3 for l3, p in patterns if p.n <= g.n and det.contains_induced(g, p) is not None]
    return min(lengths, default=None)


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_theta_is_shortest_first(g):
    w = det.find_theta(g)
    best = _shortest_contained(g, THETAS)
    assert (w is None) == (best is None)
    if w is not None:
        assert max(len(p) for p in w.detail_map()["paths"]) - 1 == best


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_prism_is_shortest_first(g):
    w = det.find_prism(g)
    best = _shortest_contained(g, PRISMS)
    assert (w is None) == (best is None)
    if w is not None:
        assert max(len(p) for p in w.detail_map()["paths"]) - 1 == best


def test_even_hole_routes_agree_at_production_sizes():
    # the path-growing detector against the subset scan above the sizes the
    # hypothesis tests draw
    rng = SplitMix(17)
    for _ in range(6):
        n = 19 + rng.below(3)
        g = random_graph(n, rng.next_u64(), 1 + rng.below(2), 10)
        w = det.find_even_hole(g)
        subset = even_hole_by_subsets(g)
        assert (w is not None) == (subset is not None)
        if w is not None:
            assert det.validate_witness(g, w)
            assert len(w.vertices) == len(subset.vertices)  # both shortest-first


def _hole_differential_graphs():
    for n in range(7):
        yield from enumerate_graphs(n)
    rng = SplitMix(29)
    for _ in range(3):
        seed = rng.next_u64()
        for kind in ("wall", "biclique", "line_of_wall"):
            yield basic_obstruction(3, kind, seed=seed)
    rng = SplitMix(31)
    for _ in range(40):
        n = 12 + rng.below(9)
        yield random_graph(n, rng.next_u64(), 1 + rng.below(3), 8)


def test_hole_finders_match_per_root_cycles():
    # each hole read once, from the lower neighbor of its lowest vertex,
    # against the per-root DFS that read it in both directions: the same
    # first even hole, and the same first even wheel rim and hub
    wheels = 0
    for g in _hole_differential_graphs():
        w = det.find_even_hole(g, guard=128)
        assert (None if w is None else w.detail_map()["cycle"]) == even_hole_by_cycles(g)
        w = det.find_even_wheel(g, guard=128)
        assert (None if w is None else tuple(w.detail_map().values())) == even_wheel_by_cycles(g)
        wheels += w is not None
    assert wheels > 0


def test_find_hole_matches_first_discoverer_bfs():
    # the walk down the layers of c against the BFS from a that keeps each
    # vertex's first discoverer: both give the lexicographically least
    # shortest a-c path, so the same cycle, or both None
    rng = SplitMix(37)
    extra = [random_graph(8 + rng.below(23), rng.next_u64(), 1, 4 + rng.below(6)) for _ in range(60)]
    holes = 0
    for g in [*_hole_differential_graphs(), *extra]:
        w = det.find_hole(g)
        assert (None if w is None else w.detail_map()["cycle"]) == hole_by_shortest_path(g)
        holes += w is not None
    assert holes > 100


def test_three_path_finders_match_plain_deepening():
    # memoised distances and first-feasible-cap deepening against the plain
    # route, on the t=3 obstructions: the same key and paths, or both None.
    # Walls have no triangle.  Line graphs are claw-free and so hold no
    # theta: the finder tries no end there, but the plain route tries every
    # vertex of degree >= 3 and would search until it exhausts.
    rng = SplitMix(29)
    found = 0
    for _ in range(4):
        seed = rng.next_u64()
        for kind in ("wall", "biclique", "line_of_wall"):
            g = basic_obstruction(3, kind, seed=seed)
            searches = [(det.find_prism, prism_by_deepening)]
            if kind != "line_of_wall":
                searches.append((det.find_theta, theta_by_deepening))
            for finder, oracle in searches:
                w = finder(g, guard=128)
                assert (None if w is None else tuple(w.detail_map().values())) == oracle(g)
                found += w is not None
    # theta in each wall and biclique, prism in each line graph
    assert found == 4 * 3


def test_pattern_library_sizes():
    assert min(p.n for _, p in THETAS) == 5  # the smallest theta is K_{2,3}
    assert min(p.n for _, p in PRISMS) == 6
    assert all(det.find_theta(p) is not None for _, p in THETAS)
    assert all(det.find_prism(p) is not None for _, p in PRISMS)


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_even_wheel_matches_brute_force(g):
    w = det.find_even_wheel(g)
    assert (w is not None) == _brute_even_wheel(g)
    if w is not None:
        assert det.validate_witness(g, w)
        assert len(w.detail_map()["cycle"]) == _shortest_even_wheel_rim(g)


def _production_wheel_graphs():
    rng = SplitMix(23)
    for _ in range(6):
        n = 19 + rng.below(2)
        yield random_graph(n, rng.next_u64(), 25 + rng.below(10), 100)


def test_even_wheel_routes_agree_at_production_sizes():
    hits = 0
    for g in _production_wheel_graphs():
        w = det.find_even_wheel(g, budget=10_000_000)
        brute = _brute_even_wheel(g)
        assert (w is not None) == brute
        if w is not None:
            hits += 1
            assert det.validate_witness(g, w)
    assert hits > 0


def test_even_wheel_is_shortest_first_at_production_sizes():
    for g in _production_wheel_graphs():
        w = det.find_even_wheel(g, budget=1_000)
        assert w is not None and det.validate_witness(g, w)
        assert len(w.detail_map()["cycle"]) == _shortest_even_wheel_rim(g)


def _shortest_even_wheel_rim(g):
    """The fewest rim vertices of an even wheel in g, by subset scan, or None."""
    for size in range(4, g.n):
        for sub in combinations(range(g.n), size):
            smask = mask_of(sub)
            if is_cycle_subset(g, sub, smask) is None:
                continue
            for h in range(g.n):
                k = (g.adj[h] & smask).bit_count()
                if not (smask >> h) & 1 and k >= 4 and k % 2 == 0:
                    return size
    return None


def _brute_even_wheel(g):
    for h in range(g.n):
        if g.degree(h) < 4:
            continue
        rest = [v for v in range(g.n) if v != h]
        for size in range(4, g.n):
            for sub in combinations(rest, size):
                smask = mask_of(sub)
                k = (g.adj[h] & smask).bit_count()
                if k < 4 or k % 2:
                    continue
                if is_cycle_subset(g, sub, smask) is not None:
                    return True
    return False
