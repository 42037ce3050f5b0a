"""Subset-scan oracles for the hole-based detectors and the stable-set
searches.

Each scan tries every vertex subset in increasing size, or every k-subset
in `combinations` order, so it is exact but exponential; the tests compare
the path-growing detectors and `graph_core.stable_sets` against it on small
graphs.
"""

from itertools import combinations
from typing import Iterable

from obslab.detectors import Witness
from obslab.errors import InvalidInput
from obslab.graph_core import Graph, bits, check_vertex_set, mask_of


def is_stable_set(g: Graph, xs: Iterable[int]) -> bool:
    xm = check_vertex_set(g, xs)
    return not (g.neighborhood(xm) & xm)


def set_relation(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> str:
    """One of "complete" / "anticomplete" / "mixed" for two disjoint sets.

    With no cross pairs at all (either side empty) both definitions hold
    vacuously; "complete" is returned.
    """
    xm = check_vertex_set(g, xs)
    ym = check_vertex_set(g, ys)
    if xm & ym:
        raise InvalidInput("set_relation requires disjoint sets")
    total = 0
    present = 0
    for v in bits(xm):
        total += ym.bit_count()
        present += (g.adj[v] & ym).bit_count()
    if present == total:
        return "complete"
    if present == 0:
        return "anticomplete"
    return "mixed"


def biclique_by_subsets(g: Graph, s: int, t: int) -> Witness | None:
    """The first stable s-set A with a stable t-set B in its common
    neighborhood, then the first such B, both in combinations order."""
    for side_a in combinations(range(g.n), s):
        if not is_stable_set(g, side_a):
            continue
        common = g.full_mask() & ~mask_of(side_a)
        for a in side_a:
            common &= g.adj[a]
        for side_b in combinations(bits(common), t):
            if is_stable_set(g, side_b):
                roles = {v: "side0" for v in side_a}
                roles.update({v: "side1" for v in side_b})
                return Witness(
                    "biclique",
                    tuple(sorted(side_a + side_b)),
                    roles,
                    (("sides", (side_a, side_b)),),
                )
    return None


def anticomplete_family_by_subsets(g: Graph, sets: list[list[int]], q: int) -> list[int] | None:
    """The first q indices, in combinations order, whose sets are pairwise
    anticomplete by set_relation."""
    for family in combinations(range(len(sets)), q):
        if all(
            not sets[i] or not sets[j] or set_relation(g, sets[i], sets[j]) == "anticomplete"
            for i, j in combinations(family, 2)
        ):
            return list(family)
    return None


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
