"""The one lower bound, the one elimination game and the reduced exact
solver of `obslab.treewidth` against the earlier routes in
`treewidth_oracles`: the same bounds, the same decompositions bag for bag
and edge for edge, from the heuristic orders, from random orders and out of
the exact solver, and the same exact widths as the unreduced DP."""

from unittest import mock

import pytest

from obslab import treewidth as tw
from obslab.generators import basic_obstruction, enumerate_graphs, random_graph, wall
from obslab.graph_core import Graph
from obslab.rng import SplitMix

from .treewidth_oracles import (
    decomposition_by_reach,
    treewidth_unreduced,
    tw_lower_with_clique,
    tw_upper_by_orders,
)


def _corpus():
    """Every class up to 7 vertices, 400 seeded random graphs with n <= 40
    and edge density 1/5 to 4/5, then walls and wall obstructions for t = 2..4."""
    out = [g for n in range(8) for g in enumerate_graphs(n)]
    rng = SplitMix(2024)
    for _ in range(400):
        n = 1 + rng.below(40)
        out.append(random_graph(n, rng.next_u64(), 1 + rng.below(4), 5))
    for t in (2, 3, 4):
        out += [wall(t), basic_obstruction(t, "wall", t), basic_obstruction(t, "line_of_wall", t)]
    return out


CORPUS = _corpus()


def _open_sandwiches(count: int, seed: int) -> list[Graph]:
    """The first count seeded random graphs with n = 18 and edge density 1/5
    whose lower bound is below their upper bound, so the DP runs."""
    rng = SplitMix(seed)
    out = []
    while len(out) < count:
        g = random_graph(18, rng.next_u64(), 1, 5)
        if tw.tw_lower(g) < tw.tw_upper(g)[0]:
            out.append(g)
    return out


DP_CORPUS = _open_sandwiches(16, 18)


def _shuffled(n: int, rng: SplitMix) -> list[int]:
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def test_degeneracy_is_the_clique_bound_too():
    for g in CORPUS:
        assert tw.tw_lower(g) == tw_lower_with_clique(g)


def test_heuristic_games_match_the_orders_and_reach_searches():
    for g in CORPUS:
        assert tw.tw_upper(g) == tw_upper_by_orders(g)


def test_fixed_order_game_matches_the_reach_search():
    rng = SplitMix(7)
    for g in CORPUS:
        for _ in range(2):
            order = _shuffled(g.n, rng)
            assert tw.decomposition_from_order(g, order) == decomposition_by_reach(g, order)


def test_exact_solver_gives_the_same_decompositions():
    small = [g for g in CORPUS if g.n <= 12]
    assert len(small) > 1300
    with mock.patch.object(tw, "tw_lower", tw_lower_with_clique), mock.patch.object(
        tw, "tw_upper", tw_upper_by_orders
    ), mock.patch.object(tw, "decomposition_from_order", decomposition_by_reach):
        before = [tw.treewidth_exact(g) for g in small]
    assert [tw.treewidth_exact(g) for g in small] == before


def test_reductions_keep_every_width():
    # CORPUS opens with every class up to 7 vertices
    for g in [g for g in CORPUS if g.n <= 12] + DP_CORPUS:
        width, td = tw.treewidth_exact(g)
        assert width == treewidth_unreduced(g)[0]
        assert tw.verify_decomposition(g, td) is None and td.width == width


def _counted_reaches(monkeypatch) -> list:
    """One entry for every reach search the subset DP makes from now on."""
    made = []
    reach = tw._reach_mask

    def counted(g, prefix, v):
        made.append(v)
        return reach(g, prefix, v)

    monkeypatch.setattr(tw, "_reach_mask", counted)
    return made


# graphs, then the reach searches of treewidth_exact, which reduces each atom
# before its DP, and of the unreduced DP over the whole graph
_PINNED_REACHES = [
    pytest.param([wall(3)], 10, 65_536, id="wall(3)"),
    pytest.param(DP_CORPUS, 2_340, 397_431, id="n=18 corpus"),
]


@pytest.mark.parametrize("graphs,calls,plain_calls", _PINNED_REACHES)
def test_reach_searches_are_pinned(graphs, calls, plain_calls, monkeypatch):
    made = _counted_reaches(monkeypatch)
    widths = [tw.treewidth_exact(g)[0] for g in graphs]
    assert len(made) == calls
    made.clear()
    assert [treewidth_unreduced(g)[0] for g in graphs] == widths
    assert len(made) == plain_calls


def test_almost_simplicial_vertices_above_the_lower_bound_stay():
    # 1, 2 and 3 each see 0 and the triangle 4, 5, 6, and 0 sees 1, 2, 3.
    # Degeneracy gives low = 3 and min-fill 5.  Vertices 1, 2 and 3 are
    # almost simplicial, of degree 4 > low, so no rule applies and the DP
    # gets all of g.  Taking vertex 1 anyway joins 0 to the triangle and
    # starts an order of width 5; the width is 4.
    joins = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)] + joins)
    low, reduced, active, _ = tw._reduce(g, tw.tw_lower(g))
    assert (low, reduced, active) == (3, [], g.full_mask())
    assert tw.tw_upper(g)[0] == 5
    width, td = tw.treewidth_exact(g)
    assert width == treewidth_unreduced(g)[0] == 4
    assert tw.verify_decomposition(g, td) is None and td.width == 4
