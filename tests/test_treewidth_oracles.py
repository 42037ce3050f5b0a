"""The one lower bound and the one elimination game of `obslab.treewidth`
against the earlier routes in `treewidth_oracles`: the same bounds, and the
same decompositions bag for bag and edge for edge, from the heuristic
orders, from random orders and out of the exact solver."""

from unittest import mock

from obslab import treewidth as tw
from obslab.generators import basic_obstruction, enumerate_graphs, random_graph, wall
from obslab.rng import SplitMix

from .treewidth_oracles import decomposition_by_reach, tw_lower_with_clique, tw_upper_by_orders


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
