"""graph_core.stable_sets and the searches routed through it, each compared
in order with a `combinations` scan from tests/subset_oracles.py."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab import detectors as det
from obslab.generators import cycle, enumerate_graphs, random_graph
from obslab.graph_core import bits, mask_of, stable_sets
from obslab.rng import SplitMix

from .conftest import graphs
from .subset_oracles import anticomplete_family_by_subsets, biclique_by_subsets, is_stable_set

SIDES = ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), hst.data())
def test_stable_sets_match_filtered_combinations(g, data):
    pool = mask_of(data.draw(hst.sets(hst.sampled_from(range(g.n))))) if g.n else 0
    assert list(stable_sets(g.adj, pool, -1)) == []
    for k in range(pool.bit_count() + 2):
        want = [mask_of(c) for c in combinations(bits(pool), k) if is_stable_set(g, c)]
        assert list(stable_sets(g.adj, pool, k)) == want


def test_stable_sets_run_without_recursion():
    # a member per stack entry, far past the interpreter's recursion limit
    rows = [0] * 5000
    assert next(stable_sets(rows, (1 << 5000) - 1, 4000)) == (1 << 4000) - 1
    assert list(stable_sets(rows, 0b1011, 0)) == [0]


def test_biclique_matches_oracle_on_every_class():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for s, t in SIDES:
                assert det.find_induced_biclique(g, s, t) == biclique_by_subsets(g, s, t), (g.adj, s, t)


def test_biclique_matches_oracle_on_random_graphs():
    rng = SplitMix(17)
    for _ in range(40):
        n = 8 + rng.below(22)
        g = random_graph(n, rng.next_u64(), 1 + rng.below(6), 12)
        for s, t in SIDES:
            w = det.find_induced_biclique(g, s, t)
            assert w == biclique_by_subsets(g, s, t), (g.adj, s, t)
            assert w is None or det.validate_witness(g, w)


def test_biclique_on_long_cycle_is_answered():
    # C(64, 8) side-A candidates for a subset scan; none has 8 common neighbors
    assert det.find_induced_biclique(cycle(64), 8, 8) is None
    assert det.find_induced_biclique(cycle(64), 1, 2) == biclique_by_subsets(cycle(64), 1, 2)


def test_anticomplete_family_matches_oracle():
    rng = SplitMix(23)
    for _ in range(60):
        n = 6 + rng.below(9)
        g = random_graph(n, rng.next_u64(), 1, 2 + rng.below(6))
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        # a repeated cut leaves an empty set, anticomplete to every set
        cuts = sorted([0, n] + [rng.below(n + 1) for _ in range(1 + rng.below(n))])
        sets = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        for q in range(len(sets) + 2):
            assert det.anticomplete_family(g, sets, q) == anticomplete_family_by_subsets(g, sets, q)
