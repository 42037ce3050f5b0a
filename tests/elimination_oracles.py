"""Earlier elimination routes, kept as oracles for the one perfect
elimination order in `detectors`: chordality by maximum-cardinality search
plus a perfect-elimination check, k-trees by a greedy simplicial peel, and
k-forests as chordal graphs without a (k+2)-clique."""

from obslab.detectors import max_clique
from obslab.graph_core import Graph, bits, is_clique


def maximum_cardinality_order(g: Graph) -> list[int]:
    """Elimination order from maximum-cardinality search (reversed visit order)."""
    n = g.n
    weight = [0] * n
    seen = 0
    visit = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not (seen >> v) & 1 and (best == -1 or weight[v] > weight[best]):
                best = v
        visit.append(best)
        seen |= 1 << best
        for u in bits(g.adj[best] & ~seen):
            weight[u] += 1
    visit.reverse()
    return visit


def is_perfect_elimination(g: Graph, order: list[int]) -> bool:
    """Each vertex's later neighbors are pairwise adjacent, checked through
    the earliest of them as in Rose, Tarjan and Lueker (1976)."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    eliminated = 0
    for v in order:
        eliminated |= 1 << v
        nbrs = g.adj[v] & ~eliminated
        if not nbrs:
            continue
        u = min(bits(nbrs), key=lambda w: pos[w])
        rest = nbrs & ~(1 << u)
        if rest & ~g.adj[u]:
            return False
    return True


def is_chordal_by_search(g: Graph) -> bool:
    return is_perfect_elimination(g, maximum_cardinality_order(g))


def is_k_tree_by_peeling(h: Graph, k: int) -> bool:
    """Greedy reverse elimination: repeatedly delete a vertex whose
    neighborhood is a k-clique; accept iff the remainder is K_k."""
    if h.n < k:
        return False
    active = h.full_mask()
    count = h.n
    changed = True
    while count > k and changed:
        changed = False
        for v in bits(active):
            nb = h.adj[v] & active
            if nb.bit_count() != k:
                continue
            if all((h.adj[u] & nb) == nb & ~(1 << u) for u in bits(nb)):
                active &= ~(1 << v)
                count -= 1
                changed = True
                break
    if count != k:
        return False
    return is_clique(h, list(bits(active)))


def is_k_forest_by_cliques(h: Graph, k: int) -> bool:
    """Chordal and K_{k+2}-free."""
    return is_chordal_by_search(h) and len(max_clique(h, stop_at=k + 2)) < k + 2
