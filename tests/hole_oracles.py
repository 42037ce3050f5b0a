"""Oracles for the hole finders.

Per-root cycle DFS, for the even-hole and even-wheel finders: the route the
finders took before holes were grown by the induced-path search.  One DFS
from every root keeps the walk above the root with its own per-root
distances and reads every hole twice, once in each direction.  At each
length and root the first cycle it reads with a given property is the
finders' first one, so the witnesses must agree; no search budget.

First-discoverer BFS, for find_hole: the route it took before it walked the
breadth-first layers of its far end.  Each vertex keeps the frontier vertex
that reached it first, and the path is read back from those.
"""

from obslab.graph_core import Graph, bits, mask_of


def cycles_per_root(g: Graph, lengths):
    """Induced cycles of g, each length in turn, root = lowest vertex, in
    lexicographic order of (root, second vertex, ...), both directions."""
    dists = [None] * g.n
    for target in lengths:
        for root in range(g.n):
            if dists[root] is None:
                dists[root] = g.bfs_dist(root, g.full_mask() >> root << root)
            dist = dists[root]
            rbit = 1 << root
            path = [root]

            def extend(end, interior_ban):
                k = len(path)
                if k == target:
                    if g.adj[end] & rbit:
                        yield tuple(path)
                    return
                for v in bits(g.adj[end] & ~interior_ban & ~mask_of(path)):
                    if dist[v] < 0 or dist[v] > target - k:
                        continue
                    # a neighbor of the root may only open or close the cycle
                    if g.adj[v] & rbit and k not in (1, target - 1):
                        continue
                    path.append(v)
                    yield from extend(v, interior_ban | (0 if k == 1 else g.adj[end]))
                    path.pop()

            yield from extend(root, 0)


def even_hole_by_cycles(g: Graph):
    """Cycle order of the first even hole, or None."""
    return next(cycles_per_root(g, range(4, g.n + 1, 2)), None)


def even_wheel_by_cycles(g: Graph):
    """(hub, cycle order) of the first rim with an outside vertex seeing an
    even number >= 4 of its vertices, the lowest such hub; or None.  A hub
    has degree >= 4, so without such a vertex no cycle is read."""
    if all(g.degree(v) < 4 for v in range(g.n)):
        return None
    for order in cycles_per_root(g, range(4, g.n)):
        rim = mask_of(order)
        for h in range(g.n):
            k = (g.adj[h] & rim).bit_count()
            if not (rim >> h) & 1 and k >= 4 and k % 2 == 0:
                return h, order
    return None


def _shortest_path(g: Graph, src: int, dst: int, allowed: int):
    """Shortest src-dst path inside allowed, each vertex reached from the
    frontier vertex that found it first; None when dst is out of reach."""
    prev = {src: -1}
    frontier = [src]
    seen = 1 << src
    while frontier:
        nxt = []
        for v in frontier:
            for u in bits(g.adj[v] & allowed & ~seen):
                seen |= 1 << u
                prev[u] = v
                nxt.append(u)
                if u == dst:
                    seq = [u]
                    while prev[seq[-1]] != -1:
                        seq.append(prev[seq[-1]])
                    return tuple(reversed(seq))
        frontier = nxt
    return None


def hole_by_shortest_path(g: Graph):
    """Cycle order of the first hole (b, a, ..., c) over two-edge paths
    a-b-c with a < c non-adjacent, b ascending: the shortest a-c path that
    avoids the rest of N[b] closes it.  None when no such path exists, which
    is exactly when g is chordal."""
    for b in range(g.n):
        nb = g.neighbors(b)
        for i, a in enumerate(nb):
            for c in nb[i + 1 :]:
                if g.has_edge(a, c):
                    continue
                allowed = g.full_mask() & ~(g.adj[b] | 1 << b) | 1 << a | 1 << c
                seq = _shortest_path(g, a, c, allowed)
                if seq is not None:
                    return (b, *seq)
    return None
