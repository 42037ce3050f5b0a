"""Exact desk-scale treewidth with certifying decompositions, plus cheap
upper and lower bounds for graphs beyond the exact range.

The exact solver runs a subset dynamic program over elimination prefixes:
the best achievable width of a prefix S extends by any next vertex v at cost
|reach(S, v)|, the set of outside vertices v sees directly or through S.
Degeneracy bounds it below and one elimination game above; the same game
turns any elimination order into its decomposition.
Bound-sandwich shortcuts and pruning by the heuristic upper bound keep the
table small on the sparse inputs this package cares about.  When the
sandwich does not close, a graph with a clique cutset is solved atom by atom
(graph_core.atoms) and the atoms' decompositions are glued along their
clique separators; the width is the largest over the atoms.
"""

from __future__ import annotations

from .errors import InvalidInput
from .graph_core import Graph, Record, atoms, bits, check_scale, induced_subgraph, mask_of, text_int

DEFAULT_EXACT_GUARD = 22


class TreeDecomposition(Record):
    """Bags indexed 0..k-1 plus tree edges between bag indices."""

    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


class DecompositionViolation(Record):
    axiom: str
    detail: str


def _reach_mask(g: Graph, prefix: int, v: int) -> int:
    """Vertices outside prefix+v adjacent to v directly or through prefix."""
    reach = g.adj[v]
    frontier = reach & prefix
    seen_inside = frontier
    while frontier:
        grown = g.neighborhood(frontier)
        reach |= grown
        frontier = grown & prefix & ~seen_inside
        seen_inside |= frontier
    return reach & ~prefix & ~(1 << v)


def _eliminate(g: Graph, choose) -> TreeDecomposition:
    """The elimination game: choose(adj, active) names the next vertex, whose
    bag is itself and its active fill-graph neighbours, the vertices it
    reaches through earlier ones (Rose, Tarjan and Lueker, SIAM J. Comput. 5,
    1976); they are then made a clique.  A bag links to the bag of its first
    other vertex to go, else to the next bag.  No vertices give the single
    empty bag of width -1."""
    adj = list(g.adj)
    active = g.full_mask()
    order = []
    bag_masks = []
    while active:
        v = choose(adj, active)
        nb = adj[v] & active
        for u in bits(nb):
            adj[u] |= nb & ~(1 << u)
        active &= ~(1 << v)
        order.append(v)
        bag_masks.append(nb | (1 << v))
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order):
        rest = bag_masks[i] & ~(1 << v)
        if rest:
            edges.append((i, min(pos[u] for u in bits(rest))))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    bags = tuple(frozenset(bits(bm)) for bm in bag_masks) or (frozenset(),)
    return TreeDecomposition(bags, tuple(edges))


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """The elimination game played in the given order of every vertex."""
    if sorted(order) != list(range(g.n)):
        raise InvalidInput(f"an elimination order lists each of the {g.n} vertices once")
    steps = iter(order)
    return _eliminate(g, lambda adj, active: next(steps))


def _min_fill(adj: list[int], active: int) -> int:
    """The active vertex whose elimination adds the fewest fill edges, then
    the one of least degree, then the lowest."""
    best_key = None
    for v in bits(active):
        nb = adj[v] & active
        fill = 0
        for u in bits(nb):
            fill += (nb & ~adj[u] & ~(1 << u)).bit_count()
        key = (fill, nb.bit_count())
        if best_key is None or key < best_key:
            best_key = key
            best_v = v
    return best_v


def _min_degree(adj: list[int], active: int) -> int:
    """The lowest active vertex of least degree inside active: in the fill
    graph for the elimination game, in g itself for tw_lower."""
    return min(bits(active), key=lambda v: (adj[v] & active).bit_count())


def tw_upper(g: Graph) -> tuple[int, TreeDecomposition]:
    """The min-fill game, or the min-degree game where it is strictly
    narrower (Bodlaender and Koster, "Treewidth computations I. Upper
    bounds", Inf. Comput. 208, 2010), with its decomposition."""
    fill = _eliminate(g, _min_fill)
    degree = _eliminate(g, _min_degree)
    best = degree if degree.width < fill.width else fill
    return best.width, best


def tw_lower(g: Graph) -> int:
    """Degeneracy, the largest degree met while removing a vertex of least
    degree (-1 on no vertices).  No clique bound can beat it: a c-clique lies
    inside the (c - 1)-core."""
    active = g.full_mask()
    out = -1
    for _ in range(g.n):
        v = _min_degree(g.adj, active)
        out = max(out, (g.adj[v] & active).bit_count())
        active &= ~(1 << v)
    return out


def _glue(parts: tuple[int, ...], tds: list[TreeDecomposition]) -> TreeDecomposition:
    """One decomposition of a graph from decompositions of its atoms, each in
    the atom's own labels, the atoms in the order atoms() gives them.  Each
    atom meets the union of the later ones in a clique S that lies inside
    one of them; a bag holding S on each side is joined by a tree edge, so
    the bags holding any vertex stay connected."""
    bags: list[int] = []
    edges = []
    starts = []
    for part, td in zip(parts, tds):
        old = list(bits(part))
        k = len(bags)
        starts.append(k)
        bags += [mask_of(old[v] for v in bag) for bag in td.bags]
        edges += [(k + a, k + b) for a, b in td.edges]
    starts.append(len(bags))

    def holding(i: int, sep: int) -> int:
        return next(b for b in range(starts[i], starts[i + 1]) if bags[b] & sep == sep)

    later = 0
    for i in reversed(range(len(parts))):
        if later:
            sep = parts[i] & later
            j = next(j for j in range(i + 1, len(parts)) if parts[j] & sep == sep)
            edges.append((holding(i, sep), holding(j, sep)))
        later |= parts[i]
    return TreeDecomposition(
        tuple(frozenset(bits(b)) for b in bags), tuple(sorted(tuple(sorted(e)) for e in edges))
    )


def treewidth_exact(
    g: Graph, guard: int = DEFAULT_EXACT_GUARD
) -> tuple[int, TreeDecomposition]:
    """Optimal width with a certifying decomposition.  When the bound
    sandwich does not close and g has a clique cutset, each atom is solved
    on its own and the decompositions are glued along the clique
    separators: clique separators are safe for treewidth (Bodlaender and
    Koster, "Safe separators for treewidth", Discrete Math. 306, 2006), so
    the width is the largest over the atoms.  The guard applies to g."""
    check_scale(g, guard, "treewidth_exact")
    n = g.n
    lb = tw_lower(g)
    ub, td = tw_upper(g)
    if lb >= ub:
        return ub, td
    parts = atoms(g)
    if len(parts) > 1:
        solved = [treewidth_exact(induced_subgraph(g, bits(p))[0], guard) for p in parts]
        return max(w for w, _ in solved), _glue(parts, [td for _, td in solved])
    full = g.full_mask()
    cur: dict[int, int] = {0: -1}
    parent: dict[int, int] = {}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for prefix in sorted(cur):
            w = cur[prefix]
            for v in bits(full & ~prefix):
                q = _reach_mask(g, prefix, v).bit_count()
                nw = w if w > q else q
                if nw >= ub:
                    continue
                grown = prefix | (1 << v)
                old = nxt.get(grown)
                if old is None or nw < old:
                    nxt[grown] = nw
                    parent[grown] = v
        cur = nxt
        if not cur:
            break
    if full in cur:
        rev = []
        s = full
        while s:
            v = parent[s]
            rev.append(v)
            s ^= 1 << v
        order = rev[::-1]
        td2 = decomposition_from_order(g, order)
        assert td2.width == cur[full], "reconstruction disagrees with the table"
        return cur[full], td2
    return ub, td


def verify_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionViolation | None:
    """Literal check of the three axioms; None means valid.  A bag vertex the
    graph lacks is InvalidInput, raised before any mask is sized by it."""
    for b in td.bags:
        if any(not 0 <= v < g.n for v in b):
            raise InvalidInput(f"bag {sorted(b)} holds a vertex outside 0..{g.n - 1}")
    k = len(td.bags)
    if k == 0:
        return DecompositionViolation("tree-shape", "no bags")
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            return DecompositionViolation("tree-shape", f"bad tree edge ({a},{b})")
    tree = Graph.from_edges(k, td.edges)
    if len(td.edges) != k - 1 or tree.component_mask(0) != tree.full_mask():
        return DecompositionViolation("tree-shape", "bag graph is not a tree")
    covered = 0
    for b in td.bags:
        covered |= mask_of(b)
    for v in range(g.n):
        if not (covered >> v) & 1:
            return DecompositionViolation("vertex-coverage", f"vertex {v} is in no bag")
    for u, v in g.edges():
        if not any(u in b and v in b for b in td.bags):
            return DecompositionViolation("edge-coverage", f"edge ({u},{v}) is in no bag")
    for v in range(g.n):
        holding = mask_of(i for i in range(k) if v in td.bags[i])
        first = (holding & -holding).bit_length() - 1
        if tree.component_mask(first, holding) != holding:
            return DecompositionViolation("connectivity", f"bags holding {v} are disconnected")
    return None


# -- PACE-style text ---------------------------------------------------------


def to_pace(td: TreeDecomposition, n: int) -> str:
    """PACE-style text, 1-based bag ids and vertex labels."""
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        lines.append(" ".join(["b", str(i)] + [str(v + 1) for v in sorted(bag)]))
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def from_pace(text: str) -> tuple[TreeDecomposition, int]:
    """Parse the PACE-style text back into (decomposition, vertex count)."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges = []

    def ints(words: list[str]) -> list[int]:
        return [text_int(w, "PACE-style token") for w in words]

    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "s":
            if header is not None or len(parts) != 5 or parts[1] != "td":
                raise InvalidInput("malformed or repeated solution line")
            header = ints(parts[2:])
        elif parts[0] == "b":
            ids = ints(parts[1:])
            if not ids or min(ids) < 1:
                raise InvalidInput(f"malformed bag line: {line!r}")
            if ids[0] - 1 in bags:
                raise InvalidInput(f"bag id {ids[0]} is repeated")
            bags[ids[0] - 1] = frozenset(v - 1 for v in ids[1:])
        else:
            if len(parts) != 2:
                raise InvalidInput(f"malformed tree edge line: {line!r}")
            a, b = ints(parts)
            edges.append((a - 1, b - 1))
    if header is None:
        raise InvalidInput("missing solution line")
    nbags, size, n = header
    # the header's count is compared with the bag lines before it sizes anything
    if nbags != len(bags) or sorted(bags) != list(range(nbags)):
        raise InvalidInput("bag ids must be 1..k, each exactly once")
    if size != max((len(b) for b in bags.values()), default=0):
        raise InvalidInput(f"the header's bag size {size} is not the largest bag's")
    td = TreeDecomposition(
        tuple(bags[i] for i in range(nbags)), tuple(sorted(tuple(sorted(e)) for e in edges))
    )
    return td, n
