"""Oracle checks: each path-growing detector against an independent search,
either a pattern library built on the induced-subgraph matcher or a subset
scan."""

import random
from contextlib import nullcontext
from itertools import combinations

from hypothesis import given, settings

from obslab import detectors as det
from obslab.generators import (
    basic_obstruction,
    enumerate_graphs,
    k_tree_random,
    random_digraph,
    random_graph,
)
from obslab.graph_core import Graph, atoms, bits, mask_of, stable_sets
from obslab.rng import SplitMix

from .atom_oracles import whole_graph
from .conftest import graphs
from .deepening_oracles import (
    balls_through_src,
    eager_first_floors,
    eager_screens,
    prism_by_deepening,
    spent,
    theta_by_deepening,
    triangles,
)
from .hole_oracles import even_hole_by_cycles, even_wheel_by_cycles, hole_by_shortest_path
from .subset_oracles import (
    chain_by_recursion,
    even_hole_by_subsets,
    induced_copy_by_recursion,
    is_cycle_subset,
)


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


def _three_path_detail(w):
    return None if w is None else tuple(w.detail_map().values())


def test_three_path_finders_match_plain_deepening():
    # memoised distances, corner screens, ordered paths and first-feasible-cap
    # deepening against the plain route, on the t=3 and t=4 obstructions and
    # every class on at most 7 vertices: the same key and paths, or both
    # None.  Walls have no triangle.  Line graphs are claw-free and so hold
    # no theta: the finder tries no end there, but the plain route tries
    # every vertex of degree >= 3 and would search until it exhausts.
    found = 0
    for t, seeds in ((3, 4), (4, 2)):
        rng = SplitMix(29)
        for _ in range(seeds):
            seed = rng.next_u64()
            for kind in ("wall", "biclique", "line_of_wall"):
                g = basic_obstruction(t, kind, seed=seed)
                searches = [(det.find_prism, prism_by_deepening)]
                if kind != "line_of_wall":
                    searches.append((det.find_theta, theta_by_deepening))
                for finder, oracle in searches:
                    w = finder(g, guard=128)
                    assert _three_path_detail(w) == oracle(g)
                    found += w is not None
    # theta in each wall and biclique, prism in each line graph
    assert found == 6 * 3
    found = 0
    for n in range(8):
        for g in enumerate_graphs(n):
            for finder, oracle in ((det.find_prism, prism_by_deepening), (det.find_theta, theta_by_deepening)):
                w = finder(g)
                assert _three_path_detail(w) == oracle(g)
                found += w is not None
    assert found > 0


def test_three_path_finders_match_the_eager_route():
    # corner screens, lazy pools, ordered paths and balls without the
    # path's start against the memoised route they replaced (eager first
    # floors and pools, paths in any order, balls through the start): the
    # same witness; for prisms the same search nodes, since the same
    # candidates reach the path search; for thetas never more nodes
    work = {}
    for t in range(3, 7):
        for seed in range(3):
            for kind in ("wall", "line_of_wall", "biclique"):
                g = basic_obstruction(t, kind, seed=seed)
                for finder in (det.find_theta, det.find_prism):
                    w, nodes, searches, *_ = spent(finder, g, guard=g.n)
                    with eager_first_floors():
                        w_eager, nodes_eager, searches_eager, *_ = spent(finder, g, guard=g.n)
                    assert w == w_eager
                    assert nodes == nodes_eager if finder is det.find_prism else nodes <= nodes_eager
                    if w is not None:
                        work[t, seed, kind, finder.__name__] = (nodes, searches, nodes_eager, searches_eager)
    # theta in each wall and biclique, prism in each line graph
    assert len(work) == 4 * 3 * 3
    # the work follows the witness: at t=6, seed 1 the prism starts at most
    # a tenth of the distance searches, corner balls included (160 against
    # 5,137), and the theta spends at most a third of the search nodes
    # (23 against 25,732)
    _, searches, _, searches_eager = work[6, 1, "line_of_wall", "find_prism"]
    assert 10 * searches <= searches_eager
    nodes, _, nodes_eager, _ = work[6, 1, "wall", "find_theta"]
    assert 3 * nodes <= nodes_eager


def test_hole_finders_match_balls_through_the_start():
    # balls that leave out the path's start, and hole pairs skipped below
    # their floors, against balls grown through the start with every pair
    # searched at every length: the same witness and never more search
    # nodes, for all four hole-based finders on the t=3..6 obstructions at
    # seeds 0-2 and every class on at most 7 vertices
    graphs = [
        basic_obstruction(t, kind, seed=seed)
        for t in range(3, 7)
        for seed in range(3)
        for kind in ("wall", "line_of_wall", "biclique")
    ]
    graphs += [g for n in range(8) for g in enumerate_graphs(n)]
    finders = (det.find_even_hole, det.find_even_wheel, det.find_theta, det.find_prism)
    totals = {finder.__name__: [0, 0] for finder in finders}
    for g in graphs:
        for finder in finders:
            w, nodes, *_ = spent(finder, g, guard=max(g.n, 1))
            with balls_through_src():
                w_old, nodes_old, *_ = spent(finder, g, guard=max(g.n, 1))
            assert w == w_old and nodes <= nodes_old
            totals[finder.__name__][0] += nodes
            totals[finder.__name__][1] += nodes_old
    # search nodes in all, then through the start: the prism's paths are
    # short and its pools fenced by the corners, so its count holds
    assert totals == {
        "find_even_hole": [5_861, 37_823],
        "find_even_wheel": [9_837, 10_538],
        "find_theta": [1_039, 20_109],
        "find_prism": [246, 246],
    }


def test_prism_matches_the_screen_everything_route():
    # candidates built per cap against every corner screen read before the
    # first cap: the same witness and search nodes, since the same
    # candidates reach the path search at each cap, and never more distance
    # searches, radius reads or frontiers; on the t=3..6 obstructions at
    # seeds 0-2, the t=8 line graph of a wall and every class on at most 7
    # vertices
    graphs = [
        basic_obstruction(t, kind, seed=seed)
        for t in range(3, 7)
        for seed in range(3)
        for kind in ("wall", "line_of_wall", "biclique")
    ]
    graphs.append(basic_obstruction(8, "line_of_wall", seed=1))
    graphs += [g for n in range(8) for g in enumerate_graphs(n)]
    found = 0
    totals = [0] * 6
    for g in graphs:
        atoms(g)  # once per graph, outside the counts
        w, nodes, *work = spent(det.find_prism, g, guard=max(g.n, 1))
        with eager_screens():
            w_eager, nodes_eager, *work_eager = spent(det.find_prism, g, guard=max(g.n, 1))
        assert w == w_eager and nodes == nodes_eager
        assert all(a <= b for a, b in zip(work, work_eager))
        totals = [a + b for a, b in zip(totals, work + work_eager)]
        found += w is not None
    # a prism in each line graph, and in some small classes
    assert found > 4 * 3 + 1
    # (searches, reads, frontiers) in all, per cap then eager
    assert totals == [1_483, 1_142, 14_301, 1_663, 247_854, 44_423]


def _absence_inputs():
    """Inputs like those of the absence benchmark: seeded 2-trees and
    3-trees, and chains of C5s, C7s and triangles, each glued on a vertex
    or an edge of what is built so far, none holding a theta or a prism."""
    rng = SplitMix(47)
    out = [k_tree_random(2, 20, rng.next_u64()) for _ in range(4)]
    out += [k_tree_random(3, 19, rng.next_u64()) for _ in range(4)]
    for _ in range(6):
        edges, cliques, n = set(), [], 0
        for p in range(10):
            size = (5 if p % 4 == 0 else 7) if p % 2 == 0 else 3
            shared = cliques[rng.below(len(cliques))][: 1 + rng.below(2)] if p else ()
            verts = [*shared, *range(n, n + size - len(shared))]
            n += size - len(shared)
            if size > 3:
                ring = [(verts[i], verts[(i + 1) % size]) for i in range(size)]
                cliques += ring
            else:
                ring = list(combinations(verts, 2))
                cliques.append(tuple(verts))
            edges.update((min(e), max(e)) for e in ring)
        out.append(Graph.from_edges(n, sorted(edges)))
    return out


def test_no_witness_side_does_no_more_work_than_the_screen_everything_route():
    # where there is little or nothing to find, building candidates per cap
    # starts no more distance searches, reads no more radii and expands no
    # more frontiers than reading every screen first, graph by graph, atom
    # by atom as the finders run and on the whole graph; on the absence
    # inputs and every class on at most 7 vertices.  The totals of
    # (searches, reads, frontiers) per finder, per cap then eager, are
    # pinned: the theta's are equal, the prism's fall.
    graphs = _absence_inputs() + [g for n in range(8) for g in enumerate_graphs(n)]
    totals = {}
    for g in graphs:
        atoms(g)  # once per graph, outside the counts
        for finder in (det.find_prism, det.find_theta):
            for route in (nullcontext, whole_graph):
                with route():
                    w, _, *work = spent(finder, g, guard=max(g.n, 1))
                    with eager_screens():
                        w_eager, _, *work_eager = spent(finder, g, guard=max(g.n, 1))
                assert w == w_eager
                assert all(a <= b for a, b in zip(work, work_eager))
                for side, counts in (("per cap", work), ("eager", work_eager)):
                    total = totals.setdefault((finder.__name__, route.__name__, side), [0, 0, 0])
                    total[:] = [a + b for a, b in zip(total, counts)]
    assert totals == {
        ("find_prism", "nullcontext", "per cap"): [105, 115, 109],
        ("find_prism", "nullcontext", "eager"): [106, 121, 110],
        ("find_prism", "whole_graph", "per cap"): [424, 115, 641],
        ("find_prism", "whole_graph", "eager"): [495, 2_321, 913],
        ("find_theta", "nullcontext", "per cap"): [1_192, 1_047, 1_363],
        ("find_theta", "nullcontext", "eager"): [1_192, 1_047, 1_363],
        ("find_theta", "whole_graph", "per cap"): [1_560, 5_848, 2_848],
        ("find_theta", "whole_graph", "eager"): [1_560, 5_848, 2_848],
    }


def _subdivided_k2(k, seed):
    """K_{2,k} on ends 0 and 1, each of its k paths given 1 to 3 seeded
    interior vertices, then up to 3 seeded chords between the interiors of
    two paths."""
    rng = SplitMix(seed)
    edges, inner, nxt = set(), [], 2
    for _ in range(k):
        prev, path = 0, []
        for _ in range(1 + rng.below(3)):
            edges.add((prev, nxt))
            path.append(nxt)
            prev, nxt = nxt, nxt + 1
        edges.add((prev, 1))
        inner.append(path)
    for _ in range(rng.below(4)):
        i, j = rng.below(k), rng.below(k)
        if i != j:
            u, v = inner[i][rng.below(len(inner[i]))], inner[j][rng.below(len(inner[j]))]
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(nxt, sorted(edges))


def test_theta_paths_rise_from_an_end_with_many_neighbours():
    # the three paths of one pair of ends are taken by rising first vertex:
    # on ends with 4 or 5 neighbours in their atom, the same theta as the
    # plain route and the eager one, also where the first path does not
    # start at the end's lowest neighbour
    late = 0
    for k in (4, 5):
        for seed in range(40):
            g = _subdivided_k2(k, seed)
            assert len(atoms(g)) == 1 and g.degree(0) == k
            w = det.find_theta(g)
            assert _three_path_detail(w) == theta_by_deepening(g)
            with eager_first_floors():
                assert det.find_theta(g) == w
            if w is not None:
                (a, _), paths = w.detail_map().values()
                firsts = [p[1] for p in paths]
                assert firsts == sorted(firsts)
                late += firsts[0] != min(g.neighbors(a))
    assert late >= 10


def test_contains_induced_matches_recursive_backtracking():
    # forward checking against the recursive search it replaced: the same
    # first embedding on every (class on <= 6 vertices, pattern class on
    # <= 4 vertices) pair and on seeded random pairs
    hosts = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    patterns = [Graph(0, ()), *(p for n in range(1, 5) for p in enumerate_graphs(n))]
    pairs = [(g, p) for g in hosts for p in patterns if p.n <= g.n]
    rng = SplitMix(41)
    for _ in range(400):
        g = random_graph(5 + rng.below(12), rng.next_u64(), 1 + rng.below(9), 10)
        pairs.append((g, random_graph(1 + rng.below(5), rng.next_u64(), 1 + rng.below(9), 10)))
    found = 0
    for g, p in pairs:
        emb = det.contains_induced(g, p)
        assert emb == induced_copy_by_recursion(g, p)
        found += emb is not None
    assert 0 < found < len(pairs)


def test_chain_matches_recursive_search():
    # the chain search on its own stack against the recursion it replaced
    rng = SplitMix(43)
    chains = 0
    for _ in range(400):
        d = random_digraph(2 + rng.below(11), rng.next_u64(), 1 + rng.below(9), 10)
        c = 1 + rng.below(6)
        tag, got = det.acyclic_tournament_or_stable(d, c, 1 + rng.below(3))
        want = chain_by_recursion(d, c)
        assert (got if tag == "tournament" else None) == want
        chains += want is not None
    assert 0 < chains < 400


def test_prism_triangles_match_the_plain_loop():
    # find_prism lists the triangles inside an atom as the stable 3-sets of
    # the complement, rows ~g.adj[v]: the plain loop's triangles inside the
    # atom, in the loop's order
    rng = SplitMix(53)
    graphs_ = [g for n in range(3, 8) for g in enumerate_graphs(n)]
    graphs_ += [random_graph(8 + rng.below(30), rng.next_u64(), 1 + rng.below(9), 10) for _ in range(60)]
    for g in graphs_:
        part = rng.next_u64() & g.full_mask()
        for pool in (g.full_mask(), part):
            want = [t for t in triangles(g) if mask_of(t) & pool == mask_of(t)]
            assert [tuple(bits(m)) for m in stable_sets([~a for a in g.adj], pool, 3)] == want


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


# -- absence oracle: bisimplicial vertices ----------------------------------------


def _bisimplicial_vertex(g):
    """A vertex whose neighbourhood is the union of two cliques (the
    non-adjacency graph on it is bipartite), by two-colouring plain sets;
    None when g has none."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    for v in range(g.n):
        side = {}
        ok = True
        for start in adj[v]:
            if start in side:
                continue
            side[start] = 0
            stack = [start]
            while stack and ok:
                u = stack.pop()
                for w in adj[v] - adj[u] - {u}:
                    if w not in side:
                        side[w] = 1 - side[u]
                        stack.append(w)
                    elif side[w] == side[u]:
                        ok = False
            if not ok:
                break
        if ok:
            return v
    return None


def _odd_hole_clique_sum(rng, pieces):
    """C5s, C7s and triangles, each glued to a random vertex or edge of what is
    built so far: no even hole, since a hole has no clique cutset and would
    lie inside one piece."""
    edges, cliques, n = set(), [], 0
    for p in range(pieces):
        size = rng.choice((3, 5, 7))
        shared = list(rng.choice(cliques))[: rng.randrange(1, 3)] if p else []
        verts = shared + list(range(n, n + size - len(shared)))
        n += size - len(shared)
        if size == 3:
            ring = list(combinations(verts, 2))
        else:
            ring = [(verts[i], verts[(i + 1) % size]) for i in range(size)]
        edges.update((min(e), max(e)) for e in ring)
        cliques.extend(ring)
    return Graph.from_edges(n, sorted(edges))


def test_certified_absence_has_a_bisimplicial_vertex():
    # every even-hole-free graph has a vertex whose neighbourhood is two
    # cliques (Addario-Berry, Chudnovsky, Havet, Reed and Seymour, JCTB 98,
    # 2008), so a graph without one that find_even_hole clears is a miss
    absent = 0
    classes = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for g in classes:
        if det.find_even_hole(g) is None:
            absent += 1
            assert _bisimplicial_vertex(g) is not None
    assert (absent, len(classes)) == (578, 1252)
    rng = random.Random(29)
    ktrees = [k_tree_random(k, n, rng.getrandbits(64)) for k, n in ((2, 24), (3, 22), (4, 20)) for _ in range(4)]
    sums = [_odd_hole_clique_sum(rng, 10) for _ in range(8)]
    for g in ktrees + sums:
        assert g.n > 18 and det.find_even_hole(g) is None
        assert _bisimplicial_vertex(g) is not None
