"""Exhaustive recognizers for the forbidden and required induced structures.

Every searcher is exact: it returns a witness that re-validates against the
structure's definition, or certifies absence by exhausting its search space.
The hole-based structures (even hole, even wheel, theta, prism) contain a
hole and have no clique cutset, so each lies inside one atom of the
clique-cutset decomposition (graph_core.atoms).  Their finders have one
entry, _per_atom, which searches every atom that is not a clique, inside g
restricted to the atom's vertex mask.  The atom list is the certificate of
absence: a graph is chordal exactly when every atom is a clique.  Inputs
beyond the vertex guard (or searches beyond the node budget) raise
ScaleLimit rather than answering wrongly.

Determinism: all searches iterate vertices in increasing index order and, for
the cycle/path searchers, in increasing target length, so witnesses are
reproducible byte for byte.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterable, Iterator

from .errors import InvalidInput, ScaleLimit
from .graph_core import (
    Digraph,
    Graph,
    Record,
    atoms,
    bits,
    check_scale,
    check_vertex_set,
    induces,
    is_clique,
    mask_of,
    stable_sets,
)

DEFAULT_GUARD = 64
DEFAULT_BUDGET = 5_000_000


class _Budget:
    """Search nodes left for one finder call, and that call's distance memo:
    the graph does not change during the call, so the ball around a vertex
    inside a mask (see _Ball) is grown once, however many atoms, candidates,
    roots and length caps ask _to_dst for it."""

    __slots__ = ("left", "what", "balls")

    def __init__(self, nodes: int, what: str):
        self.left = nodes
        self.what = what
        self.balls: dict[tuple[int, int], _Ball] = {}

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise ScaleLimit(f"{self.what}: search budget exhausted")


class _Ball(list):
    """ball[d] is the mask of the vertices within distance d of the end
    inside the mask, grown from Graph.layers one layer at a time and only as
    far as a caller asks.  Once the breadth-first search is exhausted, only
    the masks are kept."""

    __slots__ = ("grow",)

    def __init__(self, g: Graph, end: int, mask: int):
        self.grow = g.layers(end, mask)
        super().__init__((next(self.grow),))

    def _more(self) -> Iterator[int]:
        """Each ball past the last one kept, kept as it is yielded; the
        search is dropped once it is exhausted."""
        reach = self[-1]
        for layer in self.grow or ():
            reach |= layer
            self.append(reach)
            yield reach
        self.grow = None

    def upto(self, radius: int) -> list[int]:
        """ball[0..radius], the whole component standing in for the balls
        past the end of the search."""
        if len(self) <= radius:
            for _ in self._more():
                if len(self) > radius:
                    break
        return self[: radius + 1] + [self[-1]] * (radius + 1 - len(self))

    def radius_holding(self, mask: int, m: int) -> int:
        """The least d with m vertices of mask in ball[d], or -1 when the
        whole component holds fewer."""
        for d, reach in enumerate(self):
            if (reach & mask).bit_count() >= m:
                return d
        for reach in self._more():
            if (reach & mask).bit_count() >= m:
                return len(self) - 1
        return -1


class Witness(Record):
    """A found structure; roles label each vertex, detail keeps ordered data
    (cycle order, path sequences) so the witness re-validates independently."""

    kind: str
    vertices: tuple[int, ...]
    roles: dict[int, str] = {}  # a fresh dict per witness: Record copies it
    detail: tuple = ()

    def detail_map(self) -> dict:
        return dict(self.detail)


# -- chordality and holes -----------------------------------------------------


def perfect_elimination_order(g: Graph) -> list[int] | None:
    """Repeatedly eliminate the lowest-index simplicial vertex of what is
    left.  None when vertices remain and none of them is simplicial, which
    happens exactly when g has a hole (Fulkerson and Gross, 1965).

    A simplicial vertex stays simplicial when other vertices leave, so after
    each elimination only its remaining neighbors are tested again."""
    left = g.full_mask()
    simplicial = mask_of(v for v in range(g.n) if is_clique(g, g.adj[v] & left))
    order = []
    while simplicial:
        v = (simplicial & -simplicial).bit_length() - 1
        order.append(v)
        left ^= 1 << v
        simplicial ^= 1 << v
        for u in bits(g.adj[v] & left & ~simplicial):
            if is_clique(g, g.adj[u] & left):
                simplicial |= 1 << u
    return None if left else order


def is_chordal(g: Graph) -> tuple[bool, list[int] | None]:
    """Chordality; a perfect elimination order certifies it."""
    order = perfect_elimination_order(g)
    return order is not None, order


def find_hole(g: Graph) -> Witness | None:
    """Some induced cycle on >= 4 vertices, or None on chordal graphs.

    For each two-edge path a-b-c with a,c non-adjacent, a hole through b
    exists iff a and c stay connected once the rest of N[b] is removed; the
    lexicographically least shortest a-c path closes an induced cycle.  It is
    walked from a, each step to the lowest neighbor one layer nearer c.
    """
    chordal, _ = is_chordal(g)
    if chordal:
        return None
    for b in range(g.n):
        nb = g.neighbors(b)
        for ai in range(len(nb)):
            for ci in range(ai + 1, len(nb)):
                a, c = nb[ai], nb[ci]
                if g.has_edge(a, c):
                    continue
                allowed = g.full_mask() & ~((1 << b) | g.adj[b]) | (1 << a) | (1 << c)
                layers = list(g.layers(c, allowed))
                d = next((d for d, layer in enumerate(layers) if layer >> a & 1), None)
                if d is None:
                    continue
                seq = [a]
                for layer in reversed(layers[:d]):
                    step = g.adj[seq[-1]] & layer
                    seq.append((step & -step).bit_length() - 1)
                cycle = (b, *seq)
                return Witness(
                    "hole",
                    tuple(sorted(cycle)),
                    {v: "hole" for v in cycle},
                    (("cycle", cycle),),
                )
    raise AssertionError("non-chordal graph must contain a hole")


# -- hole-based finders: the atom route, induced cycles, even hole and wheel ----


def _per_atom(g: Graph, guard: int, budget: int, what: str, search):
    """The one entry of the four hole-based finders: the scale guard, then
    search(g, part, nodes) on the vertex mask part of every atom of g that
    is not a clique; the smallest (measure, data) found, or None.  The
    searched structures contain a hole and have no clique cutset, so each
    lies inside one atom, and the smallest key in the search's own order is
    the one the whole graph would give first.  An atom that is a clique has
    no hole, and a graph whose atoms are all cliques is chordal: the atom
    list is the certificate of absence.  One budget and one distance memo
    cover every atom: a distance inside a mask depends only on g, the target
    and the mask."""
    check_scale(g, guard, what)
    nodes = _Budget(budget, what)
    best = None
    for part in atoms(g):
        if not is_clique(g, part):
            found = search(g, part, nodes)
            if found is not None and (best is None or found < best):
                best = found
    return best


def _cycles(
    g: Graph, part: int, lengths: Iterable[int], budget: _Budget
) -> Iterator[tuple[int, ...]]:
    """Induced cycles of g inside the vertex mask part, each length in turn,
    each read once and in deterministic order: as (root, a, ..., b) with
    root the lowest vertex and a < b its two neighbors on the cycle.
    a, ..., b, root is an induced path through vertices of part above root
    that avoids root's neighbors below a, so a is never root's highest
    neighbor."""
    for target in lengths:
        for root in bits(part):
            above = part >> (root + 1) << (root + 1)
            ups = g.adj[root] & above
            for a in list(bits(ups))[:-1]:
                pool = above & ~(ups & ((1 << a) - 1))
                for p in _induced_paths(g, a, root, pool, target - 1, budget):
                    if len(p) == target:
                        yield (root, *p[:-1])


def _first_even_hole(g: Graph, part: int, budget: _Budget):
    """(length, cycle) of the shortest-first even hole inside part, or None."""
    for order in _cycles(g, part, range(4, part.bit_count() + 1, 2), budget):
        return len(order), order
    return None


def find_even_hole(
    g: Graph, guard: int = DEFAULT_GUARD, budget: int = DEFAULT_BUDGET
) -> Witness | None:
    """Shortest-first search for a hole on an even number of vertices, atom
    by atom."""
    found = _per_atom(g, guard, budget, "find_even_hole", _first_even_hole)
    if found is None:
        return None
    order = found[1]
    return Witness("even-hole", tuple(sorted(order)), {v: "hole" for v in order}, (("cycle", order),))


def _first_even_wheel(g: Graph, part: int, budget: _Budget):
    """(rim length, (rim, hub)) of the first rim in part's hole stream with
    an outside hub in part of an even number >= 4 of neighbors on it, the
    lowest-index such hub; or None.  Only a vertex of degree >= 4 inside
    part can be a hub."""
    hubs = mask_of(v for v in bits(part) if (g.adj[v] & part).bit_count() >= 4)
    if not hubs:
        return None
    for order in _cycles(g, part, range(4, part.bit_count()), budget):
        rim = mask_of(order)
        for h in bits(hubs & ~rim):
            k = (g.adj[h] & rim).bit_count()
            if k >= 4 and k % 2 == 0:
                return len(order), (order, h)
    return None


def find_even_wheel(
    g: Graph, guard: int = DEFAULT_GUARD, budget: int = DEFAULT_BUDGET
) -> Witness | None:
    """One shortest-first pass over the holes of each atom for a rim with an
    even hub."""
    found = _per_atom(g, guard, budget, "find_even_wheel", _first_even_wheel)
    if found is None:
        return None
    order, h = found[1]
    roles = {v: "rim" for v in order} | {h: "hub"}
    detail = (("hub", h), ("cycle", order))
    return Witness("even-wheel", tuple(sorted((h, *order))), roles, detail)


# -- three anticomplete paths (shared by theta / prism) ---------------------------


def _to_dst(
    g: Graph, src: int, dst: int, interior_allowed: int, budget: _Budget
) -> tuple[int, _Ball]:
    """The interior pool of src-dst paths, and the ball around dst inside
    the pool plus both ends, from the finder call's memo."""
    pool = interior_allowed & ~(1 << src) & ~(1 << dst)
    key = (dst, pool | (1 << src) | (1 << dst))
    ball = budget.balls.get(key)
    if ball is None:
        ball = budget.balls[key] = _Ball(g, *key)
    return pool, ball


def _floor(g: Graph, src: int, dst: int, allowed: int, m: int, budget: _Budget) -> int:
    """A lower bound on the longest of m induced src-dst paths with disjoint
    interiors inside the allowed mask, or -1 when they cannot exist: either
    the single edge src-dst or m paths leaving src through distinct
    neighbors x in the pool, each of length >= 1 + dist(x, dst).  The ball
    around dst grows only until it holds m of those neighbors."""
    if g.has_edge(src, dst):
        return 1 if m == 1 else -1
    pool, ball = _to_dst(g, src, dst, allowed, budget)
    d = ball.radius_holding(g.adj[src] & pool, m)
    return d + 1 if d >= 0 else -1


def _induced_paths(
    g: Graph,
    src: int,
    dst: int,
    interior_allowed: int,
    max_len: int,
    budget: _Budget,
) -> Iterator[tuple[int, ...]]:
    """src-dst paths of length 2..max_len (max_len >= 1), induced apart from
    a src-dst edge, whose interiors stay in the allowed mask: the induced
    paths when src and dst are not adjacent, the rest of a hole through that
    edge when they are.  Deterministic ascending-vertex order, distance
    pruned: after k vertices the next one lies within max_len - k of dst, in
    the ball grown that far.  One loop with its own stack, as in
    graph_core.stable_sets, so the budget, one node spent for each path
    grown, is the only limit on the length of a path."""
    pool, ball = _to_dst(g, src, dst, interior_allowed, budget)
    budget.spend()
    within = ball.upto(max_len - 1)
    adj = g.adj
    dbit = 1 << dst
    path = [src]
    pmask = 1 << src
    # per vertex of path: the candidates for the next vertex, and the
    # neighbors of the path so far, which the vertices after it must avoid
    stack = [(bits(adj[src] & pool & within[-1]), adj[src])]
    while stack:
        cands, ban = stack[-1]
        for v in cands:
            if adj[v] & dbit:
                yield (*path, v, dst)
                # any continuation would leave a chord back to dst
                continue
            budget.spend()
            path.append(v)
            pmask |= 1 << v
            near = within[max_len - len(path)]
            stack.append((bits(adj[v] & pool & near & ~ban & ~pmask), ban | adj[v]))
            break
        else:
            stack.pop()
            pmask ^= 1 << path.pop()


def _anticomplete_paths(
    g: Graph, asks: tuple[tuple[int, int, int, int], ...], cap: int, budget: _Budget
) -> tuple[tuple[int, ...], ...] | None:
    """For each ask (src, dst, pool, m) in turn, m induced src-dst paths of
    length <= cap with interiors in pool, all interiors pairwise disjoint
    and anticomplete: the first such tuple in deterministic order, or None.
    No path is enumerated unless the floor of every ask fits under cap."""
    if not all(0 < _floor(g, *ask, budget) <= cap for ask in asks):
        return None
    src, dst, pool, m = asks[0]
    rest = asks[1:] if m == 1 else ((src, dst, pool, m - 1), *asks[1:])
    # the direct edge makes every longer sequence non-induced
    edge = g.has_edge(src, dst)
    for p in [(src, dst)] if edge else _induced_paths(g, src, dst, pool, cap, budget):
        if not rest:
            return (p,)
        inner = mask_of(p[1:-1])
        ban = inner | g.neighborhood(inner)
        found = _anticomplete_paths(g, tuple((s, d, q & ~ban, k) for s, d, q, k in rest), cap, budget)
        if found is not None:
            return (p, *found)
    return None


def _shortest_three_paths(g: Graph, part: int, candidates: list, budget: _Budget):
    """Cap deepening over candidates, a list of (key, asks) built once per
    search of the vertex mask part, every pool inside it: at each cap, the
    first candidate with anticomplete paths of length <= cap gives (cap,
    (key, paths)), else None.  Caps stop at the size of part, which no path
    inside it exceeds.

    Each candidate's first floor (its first ask's) is computed once.  A
    candidate is searched only at caps from its first floor up, and
    deepening starts at the smallest first floor, since no cap below it can
    succeed.  Every candidate was searched exhaustively at cap - 1, so the
    longest path found has length exactly cap: shortest first."""
    firsts = [_floor(g, *asks[0], budget) for _, asks in candidates]
    first_cap = min((f for f in firsts if f > 0), default=None)
    if first_cap is None:
        return None
    for cap in range(first_cap, part.bit_count() + 1):
        for first, (key, asks) in zip(firsts, candidates):
            if 0 < first <= cap:
                paths = _anticomplete_paths(g, asks, cap, budget)
                if paths is not None:
                    return cap, (key, paths)
    return None


def _claw_centre(g: Graph, v: int, part: int) -> bool:
    """Whether v has three pairwise non-adjacent neighbors inside part."""
    return next(stable_sets(g.adj, g.adj[v] & part, 3), None) is not None


def _first_theta(g: Graph, part: int, budget: _Budget):
    """(cap, ((a, z), paths)) of the shortest-first theta inside part, or
    None.  Only a claw centre of part can be an end."""
    ends = [v for v in bits(part) if _claw_centre(g, v, part)]
    candidates = [
        ((a, z), ((a, z, part & ~mask_of((a, z)), 3),))
        for a in ends
        for z in ends
        if z > a and not g.has_edge(a, z)
    ]
    return _shortest_three_paths(g, part, candidates, budget)


def find_theta(
    g: Graph, guard: int = DEFAULT_GUARD, budget: int = DEFAULT_BUDGET
) -> Witness | None:
    """Two non-adjacent ends joined by three induced paths of length >= 2 with
    pairwise disjoint, pairwise anticomplete interiors, atom by atom.  The
    paths' first interior vertices are three pairwise non-adjacent neighbors
    of an end, so only a claw centre can be one."""
    found = _per_atom(g, guard, budget, "find_theta", _first_theta)
    if found is None:
        return None
    (a, z), (p1, p2, p3) = found[1]
    verts = set(p1) | set(p2) | set(p3)
    roles = {v: "interior" for v in verts}
    roles[a] = "end"
    roles[z] = "end"
    return Witness(
        "theta",
        tuple(sorted(verts)),
        roles,
        (("ends", (a, z)), ("paths", (p1, p2, p3))),
    )


def _first_prism(g: Graph, part: int, budget: _Budget):
    """(cap, ((t1, t2, matched), paths)) of the shortest-first prism inside
    part, or None: t1 before t2 among the triangles inside part, ascending
    triples in lexicographic order (the stable 3-sets of the complement,
    whose rows ~g.adj[v] cost less than a complement graph per atom),
    matched the permutation of t2 whose corners the paths reach."""
    tris = [tuple(bits(m)) for m in stable_sets([~a for a in g.adj], part, 3)]
    # per corner, the neighborhood of the other two corners of its triangle
    others = [{v: g.neighborhood(mask_of(t) & ~(1 << v)) for v in t} for t in tris]
    candidates = []
    for i, t1 in enumerate(tris):
        t1m = mask_of(t1)
        for j in range(i + 1, len(tris)):
            t2, t2m = tris[j], mask_of(tris[j])
            if t1m & t2m:
                continue
            for matched in permutations(t2):
                pairs = tuple(zip(t1, matched))
                # corners may touch only their matched partner across the triangles
                if any(g.adj[u] & t2m & ~(1 << w) for u, w in pairs):
                    continue
                # interiors avoid all six corners and every other corner's neighborhood
                asks = tuple((u, w, part & ~(t1m | t2m | others[i][u] | others[j][w]), 1) for u, w in pairs)
                candidates.append(((t1, t2, matched), asks))
    return _shortest_three_paths(g, part, candidates, budget)


def find_prism(
    g: Graph, guard: int = DEFAULT_GUARD, budget: int = DEFAULT_BUDGET
) -> Witness | None:
    """Two disjoint triangles joined by three paths in the line-graph-of-theta
    pattern: paths pairwise anticomplete apart from their own triangle
    corners, atom by atom."""
    found = _per_atom(g, guard, budget, "find_prism", _first_prism)
    if found is None:
        return None
    (t1, _, t2), (p1, p2, p3) = found[1]
    verts = set(t1) | set(t2) | set(p1) | set(p2) | set(p3)
    roles = {v: "interior" for v in verts}
    for v in t1:
        roles[v] = "triangle0"
    for v in t2:
        roles[v] = "triangle1"
    return Witness(
        "prism",
        tuple(sorted(verts)),
        roles,
        (("triangles", (t1, t2)), ("paths", (p1, p2, p3))),
    )


# -- cliques and bicliques ----------------------------------------------------------


def max_clique(g: Graph, stop_at: int | None = None) -> tuple[int, ...]:
    """A maximum clique (or any clique of size stop_at, which ends the search
    early) by branch and bound with greedy coloring bounds."""
    best: tuple[int, ...] = ()

    def color_bound(pmask: int) -> list[tuple[int, int]]:
        order = []
        color = 0
        work = pmask
        while work:
            color += 1
            q = work
            while q:
                v = (q & -q).bit_length() - 1
                order.append((v, color))
                q &= ~g.adj[v] & ~(1 << v)
                work &= ~(1 << v)
        return order

    # per open node: its candidates in reverse coloring order, and those of
    # them not tried yet; clique holds the vertex that opened each node
    # after the first
    clique: list[int] = []
    nodes = [[reversed(color_bound(g.full_mask())), g.full_mask()]]
    while nodes and (stop_at is None or len(best) < stop_at):
        node = nodes[-1]
        step = next(node[0], None)
        if step is None or len(clique) + step[1] <= len(best):
            nodes.pop()
            if clique:
                clique.pop()
            continue
        v = step[0]
        node[1] ^= 1 << v
        pmask = node[1] & g.adj[v]
        if pmask:
            clique.append(v)
            nodes.append([reversed(color_bound(pmask)), pmask])
        elif len(clique) + 1 > len(best):
            best = (*clique, v)
    return tuple(sorted(best))


def find_clique(g: Graph, c: int, guard: int = DEFAULT_GUARD) -> Witness | None:
    """A clique on exactly c vertices, or certified absence."""
    if c < 1:
        raise InvalidInput("clique size must be >= 1")
    check_scale(g, guard, "find_clique")
    if c > g.n:
        return None
    got = max_clique(g, stop_at=c)
    if len(got) >= c:
        sel = got[:c]
        return Witness("clique", tuple(sel), {v: "clique" for v in sel})
    return None


class _Rows(dict):
    """rows[v] = row(v), computed when first read."""

    def __init__(self, row):
        self.row = row

    def __missing__(self, v: int) -> int:
        got = self[v] = self.row(v)
        return got


def find_induced_biclique(g: Graph, s: int, t: int, guard: int = DEFAULT_GUARD) -> Witness | None:
    """An induced complete bipartite subgraph with stable sides of sizes s, t:
    the first side A, then the first side B, in combinations order.  Two
    members of A need t common neighbors, so each row of A's search also
    bans the vertices that have fewer; that loses no side A.  A row is built
    when the search first reads it, so a search that ends early, or one with
    s = 1, which reads none, builds few."""
    if s < 1 or t < 1:
        raise InvalidInput("biclique side sizes must be >= 1")
    check_scale(g, guard, "find_induced_biclique")
    adj = g.adj
    rows = _Rows(lambda v: adj[v] | mask_of(u for u, b in enumerate(adj) if (adj[v] & b).bit_count() < t))
    for am in stable_sets(rows, g.full_mask(), s):
        common = g.full_mask()
        for a in bits(am):
            common &= adj[a]
        bm = next(stable_sets(adj, common, t), None)
        if bm is not None:
            side_a, side_b = tuple(bits(am)), tuple(bits(bm))
            roles = {v: "side0" for v in side_a}
            roles.update({v: "side1" for v in side_b})
            return Witness(
                "biclique",
                tuple(sorted(side_a + side_b)),
                roles,
                (("sides", (side_a, side_b)),),
            )
    return None


# -- class membership ------------------------------------------------------------------


def membership_E_t(
    g: Graph, t: int | None = None, guard: int = DEFAULT_GUARD, budget: int = DEFAULT_BUDGET
) -> Witness | None:
    """None iff the graph avoids induced K_{2,2}, theta, prism, even wheel and,
    when t is given, K_t; otherwise the first witness in that fixed order."""
    searches = [
        (find_induced_biclique, (2, 2, guard)),
        (find_theta, (guard, budget)),
        (find_prism, (guard, budget)),
        (find_even_wheel, (guard, budget)),
    ]
    if t is not None:
        searches.append((find_clique, (t, guard)))
    for find, args in searches:
        w = find(g, *args)
        if w is not None:
            return w
    return None


# -- k-trees and k-forests ----------------------------------------------------------------


def is_k_tree(h: Graph, k: int) -> bool:
    """k-trees are the edge-maximal graphs of treewidth <= k: at least k
    vertices, k*n - k*(k+1)/2 edges, and a k-forest."""
    if k < 1:
        raise InvalidInput("k must be >= 1")
    return h.n >= k and h.m == k * h.n - k * (k + 1) // 2 and is_k_forest(h, k)


def is_k_forest(h: Graph, k: int) -> bool:
    return k_forest_order(h, k) is not None


def k_forest_order(h: Graph, k: int) -> list[int] | None:
    """The perfect elimination order of a chordal K_{k+2}-free graph, else None:
    on a chordal graph the clique number is one more than the largest later
    neighborhood, so no vertex may have more than k neighbors later in it."""
    if k < 1:
        raise InvalidInput("k must be >= 1")
    order = perfect_elimination_order(h)
    later = h.full_mask()
    for v in order or ():
        later ^= 1 << v
        if (h.adj[v] & later).bit_count() > k:
            return None
    return order


# -- induced subgraph isomorphism --------------------------------------------------------------


def contains_induced(g: Graph, h: Graph, guard: int = DEFAULT_GUARD) -> dict[int, int] | None:
    """Injective map of h into g preserving adjacency and non-adjacency, or
    certified absence, by forward checking (Ullmann 1976; Haralick and
    Elliott 1980).  Pattern vertices go most placed neighbors first, then
    highest degree, then lowest index.  Each unplaced one keeps a mask of
    the host vertices of at least its degree inside each placed neighbor's
    host row and outside each placed non-neighbor's closed host row; a try
    that empties one is cut, so trying candidates in ascending order finds
    plain backtracking's first embedding.  One loop with its own stack."""
    if h.n > g.n:
        raise InvalidInput("pattern has more vertices than the host")
    check_scale(g, guard, "contains_induced")
    deg = [a.bit_count() for a in h.adj]
    rank = [[0, d, -v] for v, d in enumerate(deg)]  # [placed neighbors, degree, -index]
    left = set(range(h.n))
    order = []
    while left:
        u = max(left, key=rank.__getitem__)
        left.remove(u)
        order.append(u)
        for w in bits(h.adj[u]):
            rank[w][0] += 1
    room = {d: mask_of(v for v, a in enumerate(g.adj) if a.bit_count() >= d) for d in set(deg)}
    host = [0] * h.n  # host[i]: the host vertex of order[i]
    # per open node with i vertices placed: the masks of order[i:], the first
    # holding what order[i] has not tried; a node is replaced by its child
    # once its last candidate is tried, so only nodes with one left are kept
    stack = [[room[deg[u]] for u in order]]
    while stack:
        cands = stack[-1]
        if not cands:
            return dict(zip(order, host))
        if not cands[0]:
            stack.pop()
            continue
        low = cands[0] & -cands[0]
        cands[0] ^= low
        i = h.n - len(cands)
        host[i] = v = low.bit_length() - 1
        row, ban, hrow = g.adj[v], ~(g.adj[v] | low), h.adj[order[i]]
        child = [m & (row if hrow >> u & 1 else ban) for u, m in zip(order[i + 1 :], cands[1:])]
        if all(child):
            if cands[0]:
                stack.append(child)
            else:
                stack[-1] = child
    return None


# -- Ramsey-type primitives ------------------------------------------------------------------------


def capped_power(c: int, e: int, cap: int) -> int:
    """c**e when that is at most cap, else some number above it (c, e >= 0):
    for c >= 2, c**cap.bit_length() is past cap, so no more is raised."""
    return c ** min(e, cap.bit_length())


def find_clique_or_stable(
    g: Graph, c: int, s: int, guard: int = DEFAULT_GUARD
) -> tuple[str, Witness | None]:
    """("clique", w) or ("stable", w), the stable set the first in
    combinations order; ("neither", None) is legal only below the c**s
    guarantee threshold, above it the search must succeed."""
    if c < 1 or s < 1:
        raise InvalidInput(f"clique size c and stable set size s must be >= 1, got c={c}, s={s}")
    w = find_clique(g, c, guard)
    if w is not None:
        return "clique", w
    found = next(stable_sets(g.adj, g.full_mask(), s), None)
    if found is not None:
        return "stable", Witness("stable", tuple(bits(found)), dict.fromkeys(bits(found), "stable"))
    if g.n >= capped_power(c, s, g.n):
        raise AssertionError(f"no {c}-clique and no stable {s}-set on {g.n} >= {c}**{s} vertices")
    return "neither", None


def anticomplete_family(
    g: Graph, sets: list[Iterable[int]], q: int
) -> list[int] | None:
    """Indices of q sets pairwise anticomplete in g, the first such family in
    combinations order; None when no such family exists."""
    masks = [check_vertex_set(g, s) for s in sets]
    owner: dict[int, int] = {}
    for i, m in enumerate(masks):
        for v in bits(m):
            if v in owner:
                raise InvalidInput("anticomplete_family requires pairwise disjoint sets")
            owner[v] = i
    # conflict[i]: the sets that touch set i
    conflict = [mask_of(owner[v] for v in bits(g.neighborhood(m)) if v in owner) for m in masks]
    chosen = next(stable_sets(conflict, (1 << len(masks)) - 1, q), None)
    return None if chosen is None else list(bits(chosen))


def acyclic_tournament_or_stable(
    d: Digraph, c: int, s: int, guard: int = DEFAULT_GUARD
) -> tuple[str, tuple[int, ...] | None]:
    """("tournament", chain) with every forward arc present along the chain,
    the first depth first with lowest vertices first, or ("stable", set) with
    no arcs among the set, the first in combinations order; ("neither",
    None) only below the c**(c**s) guarantee threshold."""
    if c < 1 or s < 1:
        raise InvalidInput(f"chain length c and stable set size s must be >= 1, got c={c}, s={s}")
    check_scale(d, guard, "acyclic_tournament_or_stable")
    full = (1 << d.n) - 1
    chain: list[int] = []
    # per open level: the pool of its vertex and the part of it not tried
    # yet; level k > 0 was opened by chain[k - 1]
    levels = [(full, full)]
    while levels and len(chain) < c:
        pool, untried = levels.pop()
        if untried:
            low = untried & -untried
            chain.append(low.bit_length() - 1)
            nxt = pool & d.out[chain[-1]] & ~low
            levels += [(pool, untried ^ low), (nxt, nxt)]
        elif chain:
            chain.pop()
    if len(chain) == c:
        return "tournament", tuple(chain)
    found = next(stable_sets([o | i for o, i in zip(d.out, d.inn)], full, s), None)
    if found is not None:
        return "stable", tuple(bits(found))
    if d.n >= capped_power(c, capped_power(c, s, d.n.bit_length()), d.n):
        raise AssertionError(f"no transitive {c}-chain and no arcless {s}-set on {d.n} vertices")
    return "neither", None


# -- witness re-validation ----------------------------------------------------------------------------


def validate_witness(g: Graph, w: Witness) -> bool:
    """Re-check a witness against its definition, independent of any search:
    each kind is one induced pattern, tested by graph_core.induces."""
    d = w.detail_map()
    if w.kind in ("hole", "even-hole", "even-wheel"):
        cyc = d["cycle"]
        if len(cyc) < 4 or (w.kind == "even-hole" and len(cyc) % 2):
            return False
        if not induces(g, cyc, zip(cyc, (*cyc[1:], cyc[0]))):
            return False
        if w.kind != "even-wheel":
            return True
        hub = d["hub"]
        if hub in cyc:
            return False
        k = (g.adj[hub] & mask_of(cyc)).bit_count()
        return k >= 4 and k % 2 == 0
    if w.kind == "clique":
        return induces(g, w.vertices, combinations(w.vertices, 2))
    if w.kind == "stable":
        return induces(g, w.vertices, ())
    if w.kind == "biclique":
        a, b = d["sides"]
        return induces(g, (*a, *b), product(a, b))
    if w.kind == "theta":
        # the ends, then three paths between them of length >= 2
        (a, z), paths = d["ends"], d["paths"]
        if len(paths) != 3 or any(len(seq) < 3 or (seq[0], seq[-1]) != (a, z) for seq in paths):
            return False
        vertices = (a, z, *(v for seq in paths for v in seq[1:-1]))
    elif w.kind == "prism":
        # two triangles, then three paths from the first to the second
        t1, t2 = d["triangles"]
        paths = d["paths"]
        if not len(t1) == len(t2) == len(paths) == 3:
            return False
        if any(not seq or (seq[0], seq[-1]) != (t1[i], t2[i]) for i, seq in enumerate(paths)):
            return False
        vertices = (*t1, *t2, *(v for seq in paths for v in seq[1:-1]))
        # each triangle edge joins the paths as a path of one edge
        paths = (*paths, *combinations(t1, 2), *combinations(t2, 2))
    else:
        raise InvalidInput(f"unknown witness kind {w.kind!r}")
    return induces(g, vertices, (e for seq in paths for e in zip(seq, seq[1:])))
