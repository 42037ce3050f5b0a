"""Subset-scan and recursive oracles for the hole-based detectors, the
stable-set searches, induced copies and tournament chains.

Each scan tries every vertex subset in increasing size, or every k-subset
in `combinations` order, so it is exact but exponential; the tests compare
the path-growing detectors and `graph_core.stable_sets` against it on small
graphs.  `induced_copy_by_recursion` and `chain_by_recursion` are the plain
recursive backtracking that `detectors.contains_induced` and
`detectors.acyclic_tournament_or_stable` ran before their searches kept
their own stacks; the tests compare the first embedding and the first chain.
"""

from itertools import combinations
from typing import Iterable

from obslab.detectors import Witness
from obslab.errors import InvalidInput
from obslab.graph_core import Digraph, Graph, bits, check_vertex_set, mask_of


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


def induced_copy_by_recursion(g: Graph, h: Graph) -> dict[int, int] | None:
    """The first injective map of h into g preserving adjacency and
    non-adjacency: pattern vertices placed highest degree first, then most
    placed neighbors, then highest degree, then lowest index; each takes
    the host vertices of at least its degree in ascending order, and every
    placed vertex's row is re-read at every node."""
    if h.n == 0:
        return {}
    first = max(range(h.n), key=lambda v: (h.degree(v), -v))
    order = [first]
    placed = {first}
    while len(order) < h.n:
        cand = max(
            (v for v in range(h.n) if v not in placed),
            key=lambda v: (sum(1 for u in h.neighbors(v) if u in placed), h.degree(v), -v),
        )
        order.append(cand)
        placed.add(cand)
    assign: dict[int, int] = {}

    def backtrack(i: int, used: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        pool = ~used & g.full_mask()
        for w, v in assign.items():
            pool &= g.adj[v] if h.has_edge(u, w) else ~g.adj[v]
        for v in bits(pool):
            if g.degree(v) < h.degree(u):
                continue
            assign[u] = v
            if backtrack(i + 1, used | (1 << v)):
                return True
            del assign[u]
        return False

    return dict(assign) if backtrack(0, 0) else None


def chain_by_recursion(d: Digraph, c: int) -> tuple[int, ...] | None:
    """The first c vertices with an arc from each to every later one, depth
    first with the lowest vertex tried first."""
    chain: list[int] = []

    def grow(pool: int) -> bool:
        if len(chain) == c:
            return True
        for v in bits(pool):
            chain.append(v)
            if grow(pool & d.out[v] & ~(1 << v)):
                return True
            chain.pop()
        return False

    return tuple(chain) if grow((1 << d.n) - 1) else None
