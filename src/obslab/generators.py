"""Deterministic constructors for every named graph family, planted-structure
synthesizers for the extractor tests, and isomorphism-free enumeration of
small graphs.

Randomized families take an explicit seed and draw from the package splitmix
stream; identical seeds reproduce identical graphs forever.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvalidInput, ScaleLimit
from .graph_core import (
    MAX_VERTICES,
    Digraph,
    Graph,
    bits,
    check_vertex_count,
    check_vertex_set,
    induced_subgraph,
    line_graph,
    mask_of,
    stable_sets,
    subdivide,
)
from .rng import SplitMix
from .structures import Crystal, CrystalSpec, Phantom, edges_inside, ekey


# -- elementary families -----------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidInput("complete graph needs n >= 1")
    # every count is capped before its edge list is built
    check_vertex_count(n)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 1 or t < 1:
        raise InvalidInput("biclique sides must be >= 1")
    check_vertex_count(s + t)
    return Graph.from_edges(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidInput("cycle needs n >= 3")
    check_vertex_count(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidInput("path needs n >= 1")
    check_vertex_count(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cone(f: Graph) -> Graph:
    """f plus one universal vertex (appended last)."""
    apex = f.n
    edges = list(f.edges()) + [(v, apex) for v in range(f.n)]
    return Graph.from_edges(f.n + 1, edges)


def double_star(a: int, b: int) -> tuple[Graph, tuple[int, int]]:
    """Two adjacent centers with a and b pendant leaves; returns the middle edge."""
    if a < 1 or b < 1:
        raise InvalidInput("double star needs at least one leaf per center")
    check_vertex_count(2 + a + b)
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph.from_edges(2 + a + b, edges), (0, 1)


def tree_T(d: int, r: int) -> tuple[Graph, int]:
    """Rooted tree of radius r: root degree d, inner vertices degree d+1.

    Returns (graph, root).  All leaves sit at distance exactly r.
    """
    if d < 1 or r < 0:
        raise InvalidInput("need d >= 1 and r >= 0")
    # level by level, stopping past the cap: d ** r itself may be huge
    size = width = 1
    depth = 0
    while depth < r and size <= MAX_VERTICES:
        width *= d
        size += width
        depth += 1
    check_vertex_count(size)
    edges = []
    level = [0]
    nxt = 1
    for _ in range(r):
        fresh = []
        for v in level:
            for _ in range(d):
                edges.append((v, nxt))
                fresh.append(nxt)
                nxt += 1
        level = fresh
    return Graph.from_edges(nxt, edges), 0


def crystal_graph(spec: CrystalSpec) -> Graph:
    """Coned double stars glued along their (shared) middle edge.

    Vertices: 0,1 are the glued middle-edge ends; then per arm an apex and
    its two leaf groups.
    """
    check_vertex_count(2 + sum(1 + a + b for a, b in spec.arms))
    edges = [(0, 1)]
    nxt = 2
    for a, b in spec.arms:
        apex = nxt
        nxt += 1
        edges += [(apex, 0), (apex, 1)]
        for _ in range(a):
            edges += [(nxt, 0), (nxt, apex)]
            nxt += 1
        for _ in range(b):
            edges += [(nxt, 1), (nxt, apex)]
            nxt += 1
    return Graph.from_edges(nxt, edges)


# -- walls and basic obstructions ----------------------------------------------


def _brick_wall(h: int, w: int | None = None) -> Graph:
    """Brick wall with h rows and w columns of bricks: (h+1) x (2w+2) grid,
    alternating verticals deleted, degree-one vertices trimmed."""
    if w is None:
        w = h
    rows, cols = h + 1, 2 * w + 2
    check_vertex_count(rows * cols)
    vid = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    edges = []
    for r in range(rows):
        for c in range(cols - 1):
            edges.append((vid[(r, c)], vid[(r, c + 1)]))
    for r in range(rows - 1):
        for c in range(cols):
            if c % 2 == r % 2:
                edges.append((vid[(r, c)], vid[(r + 1, c)]))
    g = Graph.from_edges(rows * cols, edges)
    keep = g.full_mask()
    while True:
        drop = 0
        for v in bits(keep):
            if (g.adj[v] & keep).bit_count() <= 1:
                drop |= 1 << v
        if not drop:
            break
        keep &= ~drop
    return induced_subgraph(g, bits(keep))[0]


def wall(t: int) -> Graph:
    """The t-by-t hexagonal wall, calibrated so its treewidth is exactly t
    for t >= 2.

    The raw square brick family with h brick rows has treewidth h+1 (checked
    by the exact solver for h <= 2), so the parameter is shifted internally:
    wall(t) is the brick wall with t-1 rows and t columns of bricks for
    t >= 2 (keeping a degree-three vertex in every member), and wall(1) is
    the single elementary brick, a six-cycle, of treewidth 2.
    """
    if t < 1:
        raise InvalidInput("wall side parameter must be >= 1")
    if t == 1:
        return _brick_wall(1, 1)
    return _brick_wall(t - 1, t)


def seeded_subdivision(g: Graph, seed: int) -> Graph:
    """Subdivide every edge 1 or 2 times, chosen by a splitmix stream."""
    rng = SplitMix(seed)
    return subdivide(g, {e: 1 + rng.below(2) for e in g.edges()})


def basic_obstruction(t: int, kind: str, seed: int = 0) -> Graph:
    """One of the four t-basic obstruction families; seed drives the
    subdivision choices of the wall-based kinds."""
    if t < 1:
        raise InvalidInput("obstruction parameter must be >= 1")
    if kind == "complete":
        return complete(t + 1)
    if kind == "biclique":
        return complete_bipartite(t, t)
    if kind == "wall":
        return seeded_subdivision(wall(t), seed)
    if kind == "line_of_wall":
        return line_graph(seeded_subdivision(wall(t), seed))[0]
    raise InvalidInput(f"unknown obstruction kind {kind!r}")


# -- k-trees ------------------------------------------------------------------


def k_tree_random(k: int, n: int, seed: int) -> Graph:
    """Grow from K_k by attaching each new vertex to a uniformly chosen
    existing k-clique."""
    if k < 1 or n < k:
        raise InvalidInput("need n >= k >= 1")
    check_vertex_count(n)
    rng = SplitMix(seed)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cliques = [tuple(range(k))]
    for v in range(k, n):
        base = cliques[rng.below(len(cliques))]
        for u in base:
            edges.append((u, v))
        for drop in range(k):
            cliques.append(tuple(sorted(set(base) - {base[drop]} | {v})))
    return Graph.from_edges(n, edges)


def _with_vertex(g: Graph, nb: int) -> Graph:
    """g plus a last vertex joined to the mask nb."""
    new = 1 << g.n
    return Graph(g.n + 1, tuple(a | new if nb >> v & 1 else a for v, a in enumerate(g.adj)) + (nb,))


def k_tree_enumerate(k: int, n: int):
    """All k-trees on n vertices, one per isomorphism class.

    Each level attaches a vertex to every k-clique of every class of the
    level below, the cliques taken as stable sets of the complement rows
    ~g.adj[v] in `combinations` order, and keeps the first candidate of each
    canonical key.  A clique that does not take the lowest members of each
    twin class of g is skipped: its lowest-twin image is an isomorphic
    candidate that comes earlier from the same g, so the kept candidates
    are unchanged.
    """
    if k < 1 or n < k:
        raise InvalidInput("need n >= k >= 1")
    level = [complete(k)]
    for size in range(k + 1, n + 1):
        grown: list[Graph] = []
        seen: set[tuple[int, int]] = set()
        for g in level:
            lowest = set(_lowest_twin_masks(g.adj))
            for m in stable_sets([~a for a in g.adj], g.full_mask(), k):
                if m not in lowest:
                    continue
                cand = _with_vertex(g, m)
                key = canonical_key(cand)
                if key not in seen:
                    seen.add(key)
                    grown.append(cand)
        level = grown
    yield from level


# -- random graphs ----------------------------------------------------------------


def random_graph(n: int, seed: int, num: int = 1, den: int = 2) -> Graph:
    """Seeded Erdos-Renyi-style graph with edge probability num/den."""
    check_vertex_count(n)
    rng = SplitMix(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.chance(num, den)
    ]
    return Graph.from_edges(n, edges)


def random_digraph(n: int, seed: int, num: int = 1, den: int = 2):
    check_vertex_count(n)
    rng = SplitMix(seed)
    arcs = [
        (i, j) for i in range(n) for j in range(n) if i != j and rng.chance(num, den)
    ]
    return Digraph.from_arcs(n, arcs)


# -- exhaustive small-graph enumeration up to isomorphism ----------------------------


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> list[list[int]]:
    """Entry [i][j]: the bit of pair {i, j} in an edge bitmask, pairs in
    lexicographic order."""
    table = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        table[i][j] = table[j][i] = 1 << k
    return table


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    """u and v have equal open or closed neighbourhoods, so swapping them
    is an automorphism."""
    return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)


def _lowest_twin_masks(adj: tuple[int, ...]) -> list[int]:
    """Every vertex subset that takes the lowest-indexed members of each
    twin class.  Twinship is an equivalence (a vertex cannot be a true twin
    of one vertex and a false twin of another), so each subset is carried
    onto exactly one of these by permuting vertices within twin classes, an
    automorphism."""
    classes: list[list[int]] = []
    for v in range(len(adj)):
        for cls in classes:
            if _twins(adj, cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    masks = [0]
    for cls in classes:
        prefixes = [mask_of(cls[:k]) for k in range(len(cls) + 1)]
        masks = [m | p for m in masks for p in prefixes]
    return masks


def _refine(g: Graph, cells: list[list[int]]) -> list[list[int]]:
    """Split every cell by its vertices' neighbour counts into every cell
    until the ordered partition is equitable.  Split parts are ordered by
    that signature, never by vertex label, so refinement commutes with
    relabelling."""
    adj = g.adj
    while True:
        masks = [mask_of(c) for c in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                a = adj[v]
                parts.setdefault(tuple([(a & m).bit_count() for m in masks]), []).append(v)
            if len(parts) == 1:
                out.append(cell)
            else:
                out += [parts[sig] for sig in sorted(parts)]
        if len(out) == len(cells):
            return out
        cells = out


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, canonical edge bitmask): equal exactly for isomorphic graphs.

    Colour refinement plus individualisation (McKay and Piperno, "Practical
    graph isomorphism, II", 2014): refine the degree partition until it is
    equitable, then individualise each vertex of the first smallest
    non-singleton cell and recurse.  Every leaf is a discrete partition, read
    as a relabelling; the key keeps the smallest relabelled edge bitmask.
    Within a cell only one vertex per twin class is tried: swapping twins
    (equal open or closed neighbourhoods) is an automorphism fixing the
    partition, so their subtrees reach the same leaves.
    """
    n = g.n
    adj = g.adj
    pair = _pair_bits(n)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(g.degree(v), []).append(v)
    best = None
    stack = [_refine(g, [by_degree[d] for d in sorted(by_degree)])]
    while stack:
        cells = stack.pop()
        open_cells = [(len(c), i) for i, c in enumerate(cells) if len(c) > 1]
        if not open_cells:
            label = [0] * n
            for i, (v,) in enumerate(cells):
                label[v] = i
            mask = 0  # read from the rows: g.edges() would cache a tuple on a graph keyed once
            for u, row in enumerate(adj):
                to_u = pair[label[u]]
                for v in bits(row & ~((2 << u) - 1)):
                    mask |= to_u[label[v]]
            if best is None or mask < best:
                best = mask
            continue
        i = min(open_cells)[1]
        tried: list[int] = []
        for v in cells[i]:
            if any(_twins(adj, u, v) for u in tried):
                continue
            tried.append(v)
            rest = [u for u in cells[i] if u != v]
            stack.append(_refine(g, cells[:i] + [[v], rest] + cells[i + 1 :]))
    return n, best or 0


def _graph_from_key(key: tuple[int, int]) -> Graph:
    n, mask = key
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


ENUMERATION_LIMIT = 8
_ISO_CACHE: dict[int, list[Graph]] = {}


def enumerate_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, one per class, rebuilt
    from the canonical keys of the one-vertex extensions of the
    (n-1)-vertex classes and sorted by key.

    Only extensions whose new vertex has the largest degree are keyed:
    deleting a vertex of largest degree from any graph on n vertices leaves
    one of the (n-1)-vertex classes, so every class is still reached.  Of
    those, an extension whose new vertex does not see the lowest-indexed
    members of each twin class of g is skipped: swapping twins is an
    automorphism of g, so it has the key of one that does, and it keeps the
    new vertex's degree the largest.  The twin rule alone leaves 7,194 of
    the 11,290 canonical keys for n = 1..7, both rules 2,088.  On a 2-CPU
    VM under Python 3.11 the 1044 classes on 7 vertices take 0.10 to 0.13 s
    from cold and the 12346 on 8 vertices 1.3 to 1.9 s more.
    """
    if n > ENUMERATION_LIMIT:
        raise ScaleLimit(f"exhaustive enumeration supported for n <= {ENUMERATION_LIMIT}")
    if n in _ISO_CACHE:
        return _ISO_CACHE[n]
    if n <= 1:
        reps = [Graph(n, tuple([0] * n))]
        _ISO_CACHE[n] = reps
        return reps
    keys = set()
    for g in enumerate_graphs(n - 1):
        top = max(a.bit_count() for a in g.adj)
        tops = mask_of(v for v, a in enumerate(g.adj) if a.bit_count() == top)
        for nb in _lowest_twin_masks(g.adj):
            # a vertex of degree top that the new one joins would outrank it
            d = nb.bit_count()
            if d < top or d == top and nb & tops:
                continue
            keys.add(canonical_key(_with_vertex(g, nb)))
    reps = [_graph_from_key(key) for key in sorted(keys)]
    _ISO_CACHE[n] = reps
    return reps


# -- planted structures ---------------------------------------------------------------


def plant_phantom_in(
    host: Graph,
    z0_vertices,
    d: int,
    r: int,
    seed: int = 0,
    density: str = "minimal",
) -> tuple[Graph, Phantom]:
    """Extend host with fresh layered material so z0 carries a (z0, d, r)
    phantom; in coned mode a seeded choice of anchor-apex edges additionally
    gets its set completed to the opposite anchor at the first level where
    such edges exist, forcing the tree branch of the cone-tree recursion."""
    if d < 1 or r < 0:
        raise InvalidInput("need d >= 1 and r >= 0")
    if density not in ("minimal", "coned"):
        raise InvalidInput(f"unknown density mode {density!r}")
    z0 = frozenset(z0_vertices)
    check_vertex_set(host, z0)
    rng = SplitMix(seed)
    adj = list(host.adj)
    n = host.n

    def add_vertex() -> int:
        nonlocal n
        adj.append(0)
        n += 1
        return n - 1

    def add_edge(u: int, v: int) -> None:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    base_edges = edges_inside(adj, mask_of(z0))
    anchors = base_edges[0] if base_edges else None
    densified = False
    layers = [z0]
    maps = []
    cur = set(z0)
    while len(layers) <= r:
        inside = edges_inside(adj, mask_of(cur))
        # each level adds d vertices per edge inside what is built so far
        check_vertex_count(n + d * len(inside))
        gamma: dict[tuple[int, int], frozenset[int]] = {}
        for e in sorted(inside):
            fresh = [add_vertex() for _ in range(d)]
            for w in fresh:
                add_edge(e[0], w)
                add_edge(e[1], w)
            gamma[ekey(*e)] = frozenset(fresh)
        if density == "coned" and not densified and anchors is not None:
            a1, a2 = anchors
            eligible = []
            for e in sorted(gamma):
                u, v = e
                others = {u, v} - {a1, a2}
                if len(others) != 1:
                    continue
                (w,) = others
                if adj[w] >> a1 & 1 and adj[w] >> a2 & 1:
                    eligible.append(e)
            if eligible:
                chosen = [e for e in eligible if rng.chance(1, 2)] or [eligible[0]]
                for e in chosen:
                    opp = a2 if a1 in e else a1
                    for w in gamma[e]:
                        add_edge(opp, w)
                densified = True
        for s in gamma.values():
            cur |= s
        layers.append(frozenset(cur))
        maps.append(gamma)
    grown = Graph(n, tuple(adj))
    return grown, Phantom(tuple(layers), tuple(maps), d)


def plant_phantom(
    z0graph: Graph, d: int, r: int, seed: int = 0, density: str = "minimal"
) -> tuple[Graph, Phantom]:
    """Build a graph containing a (V(z0graph), d, r) phantom over a copy of
    z0graph; minimal mode attaches each fresh vertex to its edge ends only."""
    return plant_phantom_in(z0graph, range(z0graph.n), d, r, seed, density)


def plant_crystal(
    f: int, g: int, noise_seed: int | None = None, noise_num: int = 1, noise_den: int = 8
) -> tuple[Graph, Crystal]:
    """A host graph carrying an (f,g)-crystal at the edge 0-1, apexes complete
    to both anchors; seeded noise adds side-internal and apex-apex edges that
    never violate the defining clauses but usually destroy clearness."""
    if f < 1 or g < 1:
        raise InvalidInput("need f >= 1 and g >= 1")
    # before the noise loop, which is quadratic in the vertex count
    check_vertex_count(2 + f * (1 + 2 * g))
    z1, z2 = 0, 1
    edges = [(z1, z2)]
    apexes = list(range(2, 2 + f))
    nxt = 2 + f
    sides = {}
    noise_pool = list(apexes)
    for z in apexes:
        edges += [(z, z1), (z, z2)]
        s1 = list(range(nxt, nxt + g))
        nxt += g
        s2 = list(range(nxt, nxt + g))
        nxt += g
        for x in s1:
            edges += [(x, z1), (x, z)]
        for x in s2:
            edges += [(x, z2), (x, z)]
        sides[z] = (frozenset(s1), frozenset(s2))
        noise_pool += s1 + s2
    if noise_seed is not None:
        rng = SplitMix(noise_seed)
        apex_of = {}
        for z in apexes:
            for x in sides[z][0] | sides[z][1]:
                apex_of[x] = z
        existing = set(edges)
        for i in range(len(noise_pool)):
            for j in range(i + 1, len(noise_pool)):
                u, v = noise_pool[i], noise_pool[j]
                # an edge from a side vertex to a foreign apex would change
                # that vertex's trace on the foreign triple, which stays legal,
                # so every pool pair is allowed
                if (u, v) in existing:
                    continue
                if rng.chance(noise_num, noise_den):
                    edges.append((u, v))
    host = Graph.from_edges(nxt, edges)
    return host, Crystal(z1, z2, tuple(apexes), sides)
