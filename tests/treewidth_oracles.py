"""Earlier treewidth routes, kept as oracles for the one elimination game,
the one lower bound and the reduced exact solver in `obslab.treewidth`:
degeneracy beside the clique bound, the greedy min-fill and min-degree
orders, the decomposition that rebuilds each bag by a reach search through
the vertices eliminated earlier, and the subset DP over the whole graph with
no atoms and no reduction rules."""

from obslab import treewidth as tw
from obslab.detectors import max_clique
from obslab.graph_core import Graph, bits
from obslab.treewidth import TreeDecomposition, _reach_mask


def degeneracy(g: Graph) -> int:
    """Max over the min-degree removal sequence; a treewidth lower bound."""
    active = g.full_mask()
    out = 0
    for _ in range(g.n):
        v = min(bits(active), key=lambda u: ((g.adj[u] & active).bit_count(), u))
        out = max(out, (g.adj[v] & active).bit_count())
        active &= ~(1 << v)
    return out


def tw_lower_with_clique(g: Graph) -> int:
    """max(clique number - 1, degeneracy)."""
    if g.n == 0:
        return -1
    return max(degeneracy(g), len(max_clique(g)) - 1)


def decomposition_by_reach(g: Graph, order: list[int]) -> TreeDecomposition:
    """Standard fill-in decomposition: one bag per vertex, found by a reach
    search, linked to the bag of the earliest-eliminated vertex it still
    sees."""
    n = g.n
    if n == 0:
        return TreeDecomposition((frozenset(),), ())
    pos = {v: i for i, v in enumerate(order)}
    prefix = 0
    bag_masks = []
    for v in order:
        bag_masks.append(_reach_mask(g, prefix, v) | (1 << v))
        prefix |= 1 << v
    edges = []
    for i, v in enumerate(order):
        rest = bag_masks[i] & ~(1 << v)
        if rest:
            j = min(pos[u] for u in bits(rest))
            edges.append((i, j))
        elif i + 1 < n:
            edges.append((i, i + 1))
    bags = tuple(frozenset(bits(bm)) for bm in bag_masks)
    return TreeDecomposition(bags, tuple(sorted(tuple(sorted(e)) for e in edges)))


def greedy_order(g: Graph, rule: str) -> list[int]:
    """Elimination order by min-degree or min-fill on the evolving fill graph."""
    n = g.n
    adj = list(g.adj)
    active = g.full_mask()
    order = []
    for _ in range(n):
        best_key = None
        best_v = -1
        for v in bits(active):
            nb = adj[v] & active
            if rule == "degree":
                key = (nb.bit_count(), v)
            else:
                fill = 0
                for u in bits(nb):
                    fill += (nb & ~adj[u] & ~(1 << u)).bit_count()
                key = (fill // 2, nb.bit_count(), v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        v = best_v
        nb = adj[v] & active
        for u in bits(nb):
            adj[u] |= nb & ~(1 << u)
        active &= ~(1 << v)
        order.append(v)
    return order


def tw_upper_by_orders(g: Graph) -> tuple[int, TreeDecomposition]:
    """Best of min-fill and min-degree elimination, fill first on a tie."""
    if g.n == 0:
        return -1, TreeDecomposition((frozenset(),), ())
    best = None
    for rule in ("fill", "degree"):
        td = decomposition_by_reach(g, greedy_order(g, rule))
        if best is None or td.width < best[0]:
            best = (td.width, td)
    return best


def treewidth_unreduced(g: Graph) -> tuple[int, TreeDecomposition]:
    """The bound sandwich, then the subset DP over every elimination prefix
    of the whole of g, pruned by the heuristic upper bound.  Reach searches
    go through tw._reach_mask, so a test can count them."""
    lb = tw.tw_lower(g)
    ub, td = tw.tw_upper(g)
    if lb >= ub:
        return ub, td
    full = g.full_mask()
    cur: dict[int, int] = {0: -1}
    parent: dict[int, int] = {}
    for _ in range(g.n):
        nxt: dict[int, int] = {}
        for prefix in sorted(cur):
            for v in bits(full & ~prefix):
                nw = max(cur[prefix], tw._reach_mask(g, prefix, v).bit_count())
                grown = prefix | (1 << v)
                if nw < ub and nw < nxt.get(grown, ub):
                    nxt[grown] = nw
                    parent[grown] = v
        cur = nxt
        if not cur:
            return ub, td
    rev = []
    s = full
    while s:
        rev.append(parent[s])
        s ^= 1 << rev[-1]
    return cur[full], tw.decomposition_from_order(g, rev[::-1])
