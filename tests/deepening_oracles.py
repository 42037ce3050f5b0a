"""Plain cap-deepening oracles for the theta and prism finders.

The route the finders took before distances were memoised and deepening
started at the first feasible cap: every candidate is searched at every cap
from 2 (theta) or 1 (prism) up, and every induced-path search computes its
own distances.  Same candidate order, so same witnesses; no search budget.
The prism's triangles come from a plain loop over edges and common
neighbors, not from the stable-set search the finder uses.
"""

from itertools import permutations

from obslab.graph_core import Graph, bits, mask_of


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
