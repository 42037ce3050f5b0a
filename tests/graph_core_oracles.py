"""Oracles for the graph_core primitives.

`clique_by_pairs` and `edges_by_pairs` scan every vertex pair of a mask with
`has_edge`, sharing no mask arithmetic with `is_clique` or `edges_inside`;
the elimination and atom oracles test cliques with the first, so the
elimination order and its checker share no predicate.  The others are the
routes the one helpers replaced, kept to compare output graph for graph:
`Graph.edges` as a shifting loop over each row, `line_graph` testing every
pair of edges, and `cone` and `contraption` rebuilding the graph from an
edge list.
"""

from obslab.graph_core import Graph, bits


def clique_by_pairs(g: Graph, mask: int) -> bool:
    vs = [v for v in range(g.n) if mask >> v & 1]
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def edges_by_pairs(g: Graph, mask: int) -> tuple[tuple[int, int], ...]:
    vs = [v for v in range(g.n) if mask >> v & 1]
    return tuple((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if g.has_edge(u, v))


def edges_by_shifting(g: Graph) -> tuple[tuple[int, int], ...]:
    out = []
    for u in range(g.n):
        rest = g.adj[u] >> (u + 1)
        for k in bits(rest):
            out.append((u, u + 1 + k))
    return tuple(out)


def line_graph_by_pairs(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    edges = edges_by_shifting(g)
    k = len(edges)
    adj = [0] * k
    for i in range(k):
        a, b = edges[i]
        for j in range(i + 1, k):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(k, tuple(adj)), edges


def cone_by_edge_list(f: Graph) -> Graph:
    apex = f.n
    edges = list(edges_by_shifting(f)) + [(v, apex) for v in range(f.n)]
    return Graph.from_edges(f.n + 1, edges)


def contraption_by_edge_list(g: Graph, z1: int, z2: int) -> tuple[Graph, int, dict[int, int]]:
    """contraption's construction on an edge z1 z2 of g."""
    common = g.adj[z1] & g.adj[z2]
    rest = [v for v in range(g.n) if v not in (z1, z2)]
    index = {v: i for i, v in enumerate(rest)}
    zed = len(rest)
    edges = []
    for u, v in edges_by_shifting(g):
        if u in (z1, z2) or v in (z1, z2):
            continue
        edges.append((index[u], index[v]))
    for v in bits(common):
        edges.append((index[v], zed))
    index[z1] = zed
    index[z2] = zed
    return Graph.from_edges(zed + 1, edges), zed, index
