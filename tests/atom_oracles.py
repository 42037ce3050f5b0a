"""Oracles for the clique-cutset atoms.

`has_clique_cutset` decides by brute force whether an induced subgraph has a
clique cutset: every clique S of it, the empty one included, is removed in
turn and what is left tested for connectivity.

`whole_graph` runs a finder or `treewidth_exact` with `atoms` answering that
every graph is one atom, so each search runs on the whole graph, as it did
before the searches went atom by atom.
"""

from contextlib import contextmanager
from unittest import mock

from obslab import detectors, treewidth
from obslab.graph_core import Graph

from .graph_core_oracles import clique_by_pairs


def _subsets(mask: int):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _connected(g: Graph, mask: int) -> bool:
    start = (mask & -mask).bit_length() - 1
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for v in range(g.n):
            if mask >> v & 1 and g.adj[u] >> v & 1 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == mask.bit_count()


def has_clique_cutset(g: Graph, mask: int) -> bool:
    """Whether removing some clique of G[mask] leaves a disconnected rest."""
    for s in _subsets(mask):
        rest = mask & ~s
        if rest and clique_by_pairs(g, s) and not _connected(g, rest):
            return True
    return False


def _one_atom(g: Graph) -> tuple[int, ...]:
    return (g.full_mask(),)


@contextmanager
def whole_graph():
    """Within the block, every finder and treewidth_exact treat g as one atom."""
    with mock.patch.object(detectors, "atoms", _one_atom), mock.patch.object(treewidth, "atoms", _one_atom):
        yield
