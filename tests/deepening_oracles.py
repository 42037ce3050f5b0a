"""Plain cap-deepening oracles for the theta and prism finders.

The route the finders took before distances were memoised and deepening
started at the first feasible cap: every candidate is searched at every cap
from 2 (theta) or 1 (prism) up, and every induced-path search computes its
own distances.  Same candidate order, so same witnesses; no search budget.
The prism's triangles come from a plain loop over edges and common
neighbors, not from the stable-set search the finder uses.

Below them, the distance memo the finders kept before it held balls: each
distance search run to exhaustion into an array of every vertex's distance,
read per candidate.  distance_arrays() runs the finders on it, with the
finders' own budget and order.

Then the memoised route the finders took before a prism candidate was
screened from its triangle corners and the paths of one theta ask were
taken by rising first vertex: eager_first_floors() runs the finders on it,
and spent() reports a finder call's search nodes, distance searches, radius
reads and frontiers.

Then the route before prism candidates were built per cap: every
(triangle pair, matching) candidate's corner screens read before the first
cap, and cap deepening over the full (bound, key) list of the prism or the
theta.  eager_screens() runs both finders on it.

Last, the route before the balls of floors and path searches left out the
path's start: each ball grown inside the pool plus both ends, and every
(root, a) pair of the hole stream searched at every length.
balls_through_src() runs every finder on it, and eager_first_floors()
runs inside it, as that route did.
"""

from array import array
from contextlib import contextmanager
from itertools import permutations
from unittest import mock

from obslab import detectors
from obslab.graph_core import Graph, bits, mask_of, stable_sets


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """Every triangle of g as an ascending triple, in lexicographic order:
    for each edge u < v, each common neighbor above v."""
    out = []
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            for w in bits((g.adj[u] & g.adj[v]) >> (v + 1) << (v + 1)):
                out.append((u, v, w))
    return out


def _closed(g: Graph, mask: int) -> int:
    """The set and all its neighbors."""
    reach = mask
    for v in bits(mask):
        reach |= g.adj[v]
    return reach


def _induced_paths(g: Graph, src: int, dst: int, interior_allowed: int, max_len: int):
    if g.has_edge(src, dst):
        yield (src, dst)
        return
    pool = interior_allowed & ~(1 << src) & ~(1 << dst)
    dist = g.bfs_dist(dst, pool | (1 << src) | (1 << dst))
    if dist[src] < 0 or dist[src] > max_len:
        return
    path = [src]

    def extend(end: int, interior_ban: int):
        for v in bits(g.adj[end] & pool & ~interior_ban & ~mask_of(path)):
            if dist[v] < 0 or len(path) + dist[v] > max_len:
                continue
            path.append(v)
            if g.has_edge(v, dst):
                yield (*path, dst)
            else:
                yield from extend(v, interior_ban | g.adj[end])
            path.pop()

    yield from extend(src, 0)


def _anticomplete_paths(g: Graph, ends, pools, cap: int):
    for p in _induced_paths(g, *ends[0], pools[0], cap):
        if len(ends) == 1:
            return (p,)
        ban = _closed(g, mask_of(p[1:-1]))
        rest = _anticomplete_paths(g, ends[1:], [q & ~ban for q in pools[1:]], cap)
        if rest is not None:
            return (p, *rest)
    return None


def _deepen(g: Graph, candidates, first_cap: int):
    for cap in range(first_cap, g.n + 1):
        for key, ends, pools in candidates:
            paths = _anticomplete_paths(g, ends, pools, cap)
            if paths is not None:
                return key, paths
    return None


def theta_by_deepening(g: Graph):
    """((a, z), paths) of the shortest-first theta, or None."""
    ends = [v for v in range(g.n) if g.degree(v) >= 3]
    candidates = [
        ((a, z), [(a, z)] * 3, [g.full_mask() & ~mask_of((a, z))] * 3)
        for a in ends
        for z in ends
        if z > a and not g.has_edge(a, z)
    ]
    return _deepen(g, candidates, 2)


def prism_by_deepening(g: Graph):
    """((t1, t2), paths) of the shortest-first prism, or None."""
    tris = triangles(g)
    candidates = []
    for i, t1 in enumerate(tris):
        for t2 in tris[i + 1 :]:
            t1m, t2m = mask_of(t1), mask_of(t2)
            if t1m & t2m:
                continue
            for matched in permutations(t2):
                ends = list(zip(t1, matched))
                if any(g.adj[u] & t2m & ~(1 << w) for u, w in ends):
                    continue
                pools = [
                    g.full_mask()
                    & ~(t1m | t2m | _closed(g, t1m & ~(1 << u)) | _closed(g, t2m & ~(1 << w)))
                    for u, w in ends
                ]
                candidates.append(((t1, matched), ends, pools))
    return _deepen(g, candidates, 1)


# -- the distance-array memo ----------------------------------------------------


class DistanceBudget(detectors._Budget):
    """The finder call's budget, its memo holding one distance array per
    (end, mask) of a floor or path search, and each prism corner's ball and
    each hole pair's floor ball run to exhaustion."""

    def __init__(self, nodes: int, what: str):
        super().__init__(nodes, what)
        self.dists: dict[tuple[int, int], array] = {}

    def ball(self, g: Graph, end: int, mask: int):
        """A prism corner's or a hole pair's ball, grown to exhaustion when
        it is made."""
        made = (end, mask) not in self.balls
        ball = super().ball(g, end, mask)
        if made:
            ball.upto(g.n)
        return ball


def to_dst(g: Graph, src: int, dst: int, interior_allowed: int, budget: DistanceBudget):
    """The interior pool of src-dst paths, and the distances to dst inside
    the pool plus dst, from the memo."""
    pool = interior_allowed & ~(1 << src) & ~(1 << dst)
    return pool, _dists(g, dst, pool | (1 << dst), budget)


def _dists(g: Graph, end: int, mask: int, budget: DistanceBudget) -> array:
    """The distances to end inside the mask, from the memo."""
    dist = budget.dists.get((end, mask))
    if dist is None:
        dist = budget.dists[end, mask] = array("h", g.bfs_dist(end, mask))
    return dist


def floor(g: Graph, src: int, dst: int, allowed: int, m: int, budget: DistanceBudget):
    """detectors._floor from a sorted list of the distances of src's pool
    neighbours."""
    if g.has_edge(src, dst):
        lens = [1]
    else:
        pool, dist = to_dst(g, src, dst, allowed, budget)
        lens = sorted(1 + dist[x] for x in bits(g.adj[src] & pool) if dist[x] >= 0)
    return lens[m - 1] if len(lens) >= m else -1


def induced_paths(g: Graph, src: int, dst: int, interior_allowed: int, max_len: int, budget):
    """detectors._induced_paths with each candidate's distance read from the
    array, spending the budget at the same points."""
    pool, dist = to_dst(g, src, dst, interior_allowed, budget)
    adj = g.adj
    dbit = 1 << dst
    path = [src]
    pmask = 1 << src
    budget.spend()
    stack = [(bits(adj[src] & pool), adj[src])]
    while stack:
        cands, ban = stack[-1]
        k = len(path)
        for v in cands:
            if dist[v] < 0 or k + dist[v] > max_len:
                continue
            if adj[v] & dbit:
                yield (*path, v, dst)
                continue
            budget.spend()
            path.append(v)
            pmask |= 1 << v
            stack.append((bits(adj[v] & pool & ~ban & ~pmask), ban | adj[v]))
            break
        else:
            stack.pop()
            pmask ^= 1 << path.pop()


@contextmanager
def distance_arrays():
    """Within the block, every finder keeps distance arrays, not balls."""
    with mock.patch.multiple(
        detectors, _Budget=DistanceBudget, _floor=floor, _induced_paths=induced_paths
    ):
        yield


# -- eager first floors ------------------------------------------------------------


def anticomplete_paths(g: Graph, asks, cap: int, budget):
    """detectors._anticomplete_paths with the m paths of one ask in any
    order of first vertices: each path is followed by every completion."""
    if not all(0 < detectors._floor(g, *ask, budget) <= cap for ask in asks):
        return None
    src, dst, pool, m = asks[0]
    rest = asks[1:] if m == 1 else ((src, dst, pool, m - 1), *asks[1:])
    edge = g.has_edge(src, dst)
    for p in [(src, dst)] if edge else detectors._induced_paths(g, src, dst, pool, cap, budget):
        if not rest:
            return (p,)
        inner = mask_of(p[1:-1])
        ban = inner | g.neighborhood(inner)
        found = anticomplete_paths(g, tuple((s, d, q & ~ban, k) for s, d, q, k in rest), cap, budget)
        if found is not None:
            return (p, *found)
    return None


def shortest_three_paths(g: Graph, part: int, candidates, budget):
    """detectors._shortest_three_paths over a list of (key, asks), every
    pool built up front and every candidate's first floor asked before the
    first cap."""
    firsts = [detectors._floor(g, *asks[0], budget) for _, asks in candidates]
    first_cap = min((f for f in firsts if f > 0), default=None)
    if first_cap is None:
        return None
    for cap in range(first_cap, part.bit_count() + 1):
        for first, (key, asks) in zip(firsts, candidates):
            if 0 < first <= cap:
                paths = anticomplete_paths(g, asks, cap, budget)
                if paths is not None:
                    return cap, (key, paths)
    return None


def first_theta(g: Graph, part: int, budget):
    ends = [v for v in bits(part) if detectors._claw_centre(g, v, part)]
    candidates = [
        ((a, z), ((a, z, part & ~mask_of((a, z)), 3),))
        for a in ends
        for z in ends
        if z > a and not g.has_edge(a, z)
    ]
    return shortest_three_paths(g, part, candidates, budget)


def first_prism(g: Graph, part: int, budget):
    tris = [t for t in triangles(g) if mask_of(t) & part == mask_of(t)]
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
                if any(g.adj[u] & t2m & ~(1 << w) for u, w in pairs):
                    continue
                asks = tuple((u, w, part & ~(t1m | t2m | others[i][u] | others[j][w]), 1) for u, w in pairs)
                candidates.append(((t1, t2, matched), asks))
    return shortest_three_paths(g, part, candidates, budget)


@contextmanager
def eager_first_floors():
    """Within the block, find_theta and find_prism take the route they took
    before corner screens and ordered paths: every candidate's pools built
    and its first floor asked before the first cap, and the paths of one
    ask in any order of first vertices, on balls through the path's start
    (balls_through_src).  Same atoms and budget."""
    with balls_through_src(), mock.patch.multiple(detectors, _first_theta=first_theta, _first_prism=first_prism):
        yield


# -- every corner screen before the first cap --------------------------------------


def listed_three_paths(g: Graph, part: int, candidates, asks_of, budget):
    """detectors._shortest_three_paths over a list of (bound, key) pairs in
    search order, filed by bound before the first cap; deepening starts at
    the smallest bound."""
    fits = {}
    for index, (bound, key) in enumerate(candidates):
        if bound > 0:
            fits.setdefault(bound, []).append((index, key))
    live = []
    for cap in range(min(fits, default=part.bit_count() + 1), part.bit_count() + 1):
        live = sorted(live + [(index, key, asks_of(key)) for index, key in fits.get(cap, ())])
        for _, key, asks in live:
            paths = detectors._anticomplete_paths(g, asks, cap, budget)
            if paths is not None:
                return cap, (key, paths)
    return None


def listed_first_theta(g: Graph, part: int, budget):
    """detectors._first_theta over the full list of its pairs."""
    ends = [v for v in bits(part) if detectors._claw_centre(g, v, part)]

    def asks_of(key):
        return ((*key, part & ~mask_of(key), 3),)

    candidates = [
        (detectors._floor(g, *asks_of((a, z))[0], budget), (a, z))
        for a in ends
        for z in ends
        if z > a and not g.has_edge(a, z)
    ]
    return listed_three_paths(g, part, candidates, asks_of, budget)


def screened_first_prism(g: Graph, part: int, budget):
    """detectors._first_prism with a bound built for every candidate before
    the first cap, from the same corner balls and screens."""
    tris = [tuple(bits(m)) for m in stable_sets([~a for a in g.adj], part, 3)]
    corner = {t: {v: part & ~(mask_of(t) | g.neighborhood(mask_of(t) & ~(1 << v))) | 1 << v for v in t} for t in tris}

    def radius(t, v, u):
        return budget.ball(g, v, corner[t][v]).radius_holding(1 << u, 1)

    def bound(t1, t2, pairs, screens):
        top = 0
        for u, w in pairs:
            if (u, w) not in screens:
                d = radius(t1, u, w)
                e = radius(t2, w, u) if d > 0 else -1
                screens[u, w] = -1 if e < 0 else max(d, e)
            if screens[u, w] < 0:
                return -1
            top = max(top, screens[u, w])
        return top

    def asks_of(key):
        t1, t2, matched = key
        return tuple((u, w, corner[t1][u] & corner[t2][w] & ~(1 << u | 1 << w), 1) for u, w in zip(t1, matched))

    candidates = []
    for i, t1 in enumerate(tris):
        t1m = mask_of(t1)
        for t2 in tris[i + 1 :]:
            t2m = mask_of(t2)
            if t1m & t2m:
                continue
            screens = {}
            for matched in permutations(t2):
                pairs = tuple(zip(t1, matched))
                if not any(g.adj[u] & t2m & ~(1 << w) for u, w in pairs):
                    candidates.append((bound(t1, t2, pairs, screens), (t1, t2, matched)))
    return listed_three_paths(g, part, candidates, asks_of, budget)


@contextmanager
def eager_screens():
    """Within the block, find_prism reads every candidate's corner screens
    before the first cap, and both finders deepen over the full list of
    their candidates.  Same memo, atoms, budget and search order: the balls
    are those of the finders, so the block measures the screens alone."""
    with mock.patch.multiple(detectors, _first_theta=listed_first_theta, _first_prism=screened_first_prism):
        yield


# -- balls through the path's start ---------------------------------------------


def to_dst_through_src(g: Graph, src: int, dst: int, interior_allowed: int, budget):
    """detectors._to_dst with the ball around dst grown inside the pool plus
    both ends: a vertex near src looks near dst through src, which the path
    never uses again."""
    pool = interior_allowed & ~(1 << src) & ~(1 << dst)
    return pool, budget.ball(g, dst, pool | (1 << src) | (1 << dst))


def arrays_through_src(g: Graph, src: int, dst: int, interior_allowed: int, budget):
    """to_dst with the distances to dst inside the pool plus both ends."""
    pool = interior_allowed & ~(1 << src) & ~(1 << dst)
    return pool, _dists(g, dst, pool | (1 << src) | (1 << dst), budget)


def cycles_without_floors(g: Graph, part: int, lengths, budget):
    """detectors._cycles with every (root, a) pair searched at every
    length."""
    for target in lengths:
        for root in bits(part):
            above = part >> (root + 1) << (root + 1)
            ups = g.adj[root] & above
            for a in list(bits(ups))[:-1]:
                pool = above & ~(ups & ((1 << a) - 1))
                for p in detectors._induced_paths(g, a, root, pool, target - 1, budget):
                    if len(p) == target:
                        yield (root, *p[:-1])


@contextmanager
def balls_through_src():
    """Within the block, every ball of a floor or path search grows inside
    the pool plus both ends, and the hole stream skips no (root, a) pair:
    the route before balls left out the path's start.  Same memo, atoms
    and budget.  Inside distance_arrays() the arrays are kept on the same
    masks."""
    with (
        mock.patch.multiple(detectors, _to_dst=to_dst_through_src, _cycles=cycles_without_floors),
        mock.patch.dict(globals(), to_dst=arrays_through_src),
    ):
        yield


class SpentBudget(detectors._Budget):
    """A finder call's budget that records itself in SpentBudget.made."""

    made: list = []

    def __init__(self, nodes: int, what: str):
        super().__init__(nodes, what)
        self.start = nodes
        SpentBudget.made.append(self)


def spent(finder, g: Graph, **kw):
    """(witness, search nodes spent, distance searches started, radii read
    from balls: corner screens and floors, breadth-first frontiers
    expanded) of one finder call.  The frontiers include those of the
    graph's atoms the first time a finder asks for them."""
    reads = frontiers = 0
    radius_holding = detectors._Ball.radius_holding
    layers = Graph.layers

    def counted_reads(ball, *args):
        nonlocal reads
        reads += 1
        return radius_holding(ball, *args)

    def counted_layers(graph, *args):
        nonlocal frontiers
        for frontier in layers(graph, *args):
            yield frontier
            frontiers += 1

    with (
        mock.patch.object(detectors, "_Budget", SpentBudget),
        mock.patch.object(detectors._Ball, "radius_holding", counted_reads),
        mock.patch.object(Graph, "layers", counted_layers),
    ):
        SpentBudget.made = []
        w = finder(g, **kw)
    (budget,) = SpentBudget.made
    return w, budget.start - budget.left, len(budget.balls), reads, frontiers
