"""Earlier enumeration routes, kept as oracles for `generators`: every
one-vertex extension of the classes below (neither the degree nor the twin
rule), the k-tree level loop over every k-clique, and colour refinement
that sorts every cell's parts, split or not.

Both enumeration routes call `generators.canonical_key` through the module,
so a test that patches it counts their calls too."""

import itertools

from obslab import generators
from obslab.graph_core import Graph, is_clique, mask_of


def extensions(n: int):
    """Every one-vertex extension of the classes on n - 1 vertices."""
    new = 1 << (n - 1)
    for g in generators.enumerate_graphs(n - 1):
        for nb in range(new):
            adj = tuple(a | new if nb >> v & 1 else a for v, a in enumerate(g.adj))
            yield Graph(n, adj + (nb,))


def classes(n: int) -> list[Graph]:
    """One graph per class on n >= 2 vertices, rebuilt from the sorted keys
    of every extension."""
    keys = {generators.canonical_key(g) for g in extensions(n)}
    return [generators._graph_from_key(key) for key in sorted(keys)]


def k_trees(k: int, n: int) -> list[Graph]:
    """The first candidate of each canonical key, attaching a vertex to
    every k-clique of every class of the level below."""
    level = [generators.complete(k)]
    for _ in range(k + 1, n + 1):
        grown: list[Graph] = []
        seen: set[tuple[int, int]] = set()
        for g in level:
            for clique in itertools.combinations(range(g.n), k):
                if not is_clique(g, mask_of(clique)):
                    continue
                cand = Graph.from_edges(g.n + 1, list(g.edges()) + [(u, g.n) for u in clique])
                key = generators.canonical_key(cand)
                if key not in seen:
                    seen.add(key)
                    grown.append(cand)
        level = grown
    return level


def refine(g: Graph, cells: list[list[int]]) -> list[list[int]]:
    """Split every cell by its vertices' neighbour counts into every cell
    until the ordered partition is equitable, parts ordered by signature."""
    while True:
        masks = [mask_of(c) for c in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                parts.setdefault(tuple((g.adj[v] & m).bit_count() for m in masks), []).append(v)
            out += [parts[sig] for sig in sorted(parts)]
        if len(out) == len(cells):
            return out
        cells = out
