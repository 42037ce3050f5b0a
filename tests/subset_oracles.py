"""Subset-scan oracles for the hole-based detectors.

Each scan tries every vertex subset in increasing size, so it is exact but
exponential; the tests compare the path-growing detectors against it on
small graphs.
"""

from itertools import combinations

from obslab.detectors import Witness
from obslab.graph_core import Graph, mask_of


def is_cycle_subset(g: Graph, subset: tuple[int, ...], smask: int) -> tuple[int, ...] | None:
    """Cycle order if the subset induces a single cycle, else None."""
    for v in subset:
        if (g.adj[v] & smask).bit_count() != 2:
            return None
    start = subset[0]
    order = [start]
    prev = -1
    cur = start
    for _ in range(len(subset) - 1):
        step = g.adj[cur] & smask
        if prev >= 0:
            step &= ~(1 << prev)
        nxt = (step & -step).bit_length() - 1
        order.append(nxt)
        prev, cur = cur, nxt
    if len(set(order)) != len(subset):
        return None
    return tuple(order)


def even_hole_by_subsets(g: Graph) -> Witness | None:
    """A smallest even hole: the first even-sized subset inducing a cycle."""
    n = g.n
    for size in range(4, n + 1, 2):
        for subset in combinations(range(n), size):
            smask = mask_of(subset)
            order = is_cycle_subset(g, subset, smask)
            if order is not None:
                return Witness(
                    "even-hole", subset, {v: "hole" for v in subset}, (("cycle", order),)
                )
    return None
