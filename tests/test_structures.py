import pytest
from hypothesis import given, settings

from obslab.detectors import contains_induced, membership_E_t
from obslab.errors import InvalidInput
from obslab.generators import (
    CrystalSpec,
    complete,
    cone,
    crystal_graph,
    cycle,
    path_graph,
    plant_crystal,
    plant_phantom,
)
from obslab.graph_core import Graph
from obslab.structures import (
    Crystal,
    Kaleidoscope,
    Phantom,
    contraption,
    crystal_from_json_obj,
    crystal_realizes_graph,
    crystal_to_json_obj,
    crystallized_sides,
    is_clear_crystal,
    is_crystallized,
    is_mirrored,
    kaleidoscope_from_json_obj,
    kaleidoscope_to_json_obj,
    phantom_from_json_obj,
    phantom_to_json_obj,
    sub_phantom,
    validate_crystal,
    validate_kaleidoscope,
    validate_phantom,
)

from .conftest import graphs


# -- phantoms ------------------------------------------------------------------


def test_validate_phantom_accepts_planted():
    for r in (0, 1, 2):
        host, p = plant_phantom(complete(2), 2, r, seed=1)
        assert validate_phantom(host, p) is None


def test_validate_phantom_violations():
    host, p = plant_phantom(complete(2), 2, 1, seed=1)
    # one vertex claimed by two level sets: cone over a triangle, the apex
    # is complete to every base edge, so only disjointness can fail
    k4 = cone(complete(3))
    shared = Phantom(
        (frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})),
        ({(0, 1): frozenset({3}), (0, 2): frozenset({3}), (1, 2): frozenset({3})},),
        1,
    )
    v = validate_phantom(k4, shared)
    assert v is not None and v.clause == "disjointness"
    # layer nesting broken
    nested = Phantom((p.layers[0], frozenset({0})), p.gamma, p.d)
    v = validate_phantom(host, nested)
    assert v is not None and v.clause == "nesting"
    # wrong set size
    gamma = {k: frozenset(list(s)[:1]) for k, s in p.gamma_at(1).items()}
    small = Phantom(p.layers, (gamma,), p.d)
    assert validate_phantom(host, small).clause == "size"
    # missing edge in the map domain
    gamma = dict(p.gamma_at(1))
    gamma[(0, 2)] = gamma.pop((0, 1))
    wrong = Phantom(p.layers, (gamma,), p.d)
    assert validate_phantom(host, wrong).clause == "domain"


def test_sub_phantom_identity_and_base():
    host, p = plant_phantom(complete(2), 2, 2, seed=0)
    same = sub_phantom(host, p, p.layers[0], 0, p.r)
    assert same == p
    flat = sub_phantom(host, p, p.layers[0], 0, 0)
    assert flat.r == 0 and flat.layers == (p.layers[0],)
    with pytest.raises(InvalidInput):
        sub_phantom(host, p, p.layers[0], 1, 2)
    with pytest.raises(InvalidInput):
        sub_phantom(host, p, {99}, 0, 1)


def test_sub_phantom_trace():
    host, p = plant_phantom(complete(2), 2, 2, seed=0)
    z1, z2 = sorted(p.layers[0])
    a = min(p.gamma_at(1)[(z1, z2)])
    sub = sub_phantom(host, p, {z2, a}, 1, 1)
    assert validate_phantom(host, sub) is None
    key = (z2, a) if z2 < a else (a, z2)
    assert sub.layers[1] == sub.layers[0] | p.gamma_at(2)[key]
    for j in range(sub.r + 1):
        assert sub.layers[j] <= p.layers[1 + j]


# -- crystals ------------------------------------------------------------------


def _gem_crystal():
    gem = crystal_graph(CrystalSpec(1, ((1, 1),)))
    # vertices: 0,1 anchors; 2 apex; 3 leaf on side 1; 4 leaf on side 2
    return gem, Crystal(0, 1, (2,), {2: (frozenset({3}), frozenset({4}))})


def test_validate_crystal_gem():
    gem, c = _gem_crystal()
    assert validate_crystal(gem, c) is None
    assert is_clear_crystal(gem, c)
    spec = crystal_realizes_graph(gem, c)
    assert spec == CrystalSpec(1, ((1, 1),))
    realized = crystal_graph(spec)
    assert contains_induced(gem, realized) is not None


def test_validate_crystal_violations():
    gem, c = _gem_crystal()
    bad = Crystal(0, 1, (2,), {2: (frozenset({4}), frozenset({3}))})
    v = validate_crystal(gem, bad)
    assert v is not None and v.clause == "CR3"
    overlap = Crystal(0, 1, (2,), {2: (frozenset({3}), frozenset({3}))})
    assert validate_crystal(gem, overlap).clause == "CR2"
    with pytest.raises(InvalidInput):
        validate_crystal(Graph.from_edges(5, [(0, 2)]), c)


def test_noisy_crystal_valid_not_clear():
    host, c = plant_crystal(2, 2, noise_seed=3, noise_num=1, noise_den=2)
    assert validate_crystal(host, c) is None
    assert not is_clear_crystal(host, c)
    assert crystal_realizes_graph(host, c) is None


def test_crystal_json_round_trip():
    host, c = plant_crystal(2, 3, noise_seed=1)
    assert crystal_from_json_obj(crystal_to_json_obj(c)) == c


def test_phantom_json_round_trip():
    host, p = plant_phantom(complete(3), 2, 2, seed=4, density="coned")
    assert phantom_from_json_obj(phantom_to_json_obj(p)) == p


# -- kaleidoscopes ----------------------------------------------------------------


def _fan_fixture(depth: int = 1):
    """A four-path fan between x and y, apex a, plus one vertex holding
    `depth` neighbors in the middle of every path."""
    # x=0, y=1, a=2; four x-y paths with 2+depth interior vertices each
    edges = [(0, 2), (1, 2)]
    paths = []
    nxt = 3
    for _ in range(4):
        mid = list(range(nxt, nxt + 2 + depth))
        nxt += len(mid)
        chain = [0] + mid + [1]
        edges += list(zip(chain, chain[1:]))
        paths.append(tuple(chain))
    z = nxt
    for p in paths:
        edges += [(z, v) for v in p[2:-2]]  # middles, clear of the end zones
    g = Graph.from_edges(z + 1, edges)
    return g, Kaleidoscope(2, 0, 1, tuple(paths)), z


def test_kaleidoscope_valid_and_mirrored():
    g, k, z = _fan_fixture()
    assert validate_kaleidoscope(g, k) is None
    ok, why = is_mirrored(g, k, [z], 1)
    assert ok, why
    ok, why = is_mirrored(g, k, [z], 2)
    assert not ok and why.clause == "M3"  # only one neighbor per path
    ok, why = is_mirrored(g, k, [k.x], 1)
    assert not ok and why.clause == "M1"


def test_kaleidoscope_two_mirrored():
    g, k, z = _fan_fixture(depth=2)
    assert validate_kaleidoscope(g, k) is None
    ok, why = is_mirrored(g, k, [z], 2)
    assert ok, why
    ok, why = is_mirrored(g, k, [z], 3)
    assert not ok and why.clause == "M3"


def test_kaleidoscope_violations():
    g, k, z = _fan_fixture()
    bad = Kaleidoscope(k.a, k.x, k.y, (k.paths[0], k.paths[0]))
    assert validate_kaleidoscope(g, bad).clause == "K2"
    edges = list(g.edges()) + [(2, k.paths[0][2])]
    g2 = Graph.from_edges(g.n, edges)
    assert validate_kaleidoscope(g2, k).clause == "K3"
    assert kaleidoscope_from_json_obj(kaleidoscope_to_json_obj(k)) == k


def test_mirrored_multi_neighbor():
    g, k, z = _fan_fixture()
    extra = list(g.edges())
    for p in k.paths:
        extra.append((z, p[1]))
    g3 = Graph.from_edges(g.n, extra)
    ok, why = is_mirrored(g3, k, [z], 2)
    assert not ok and why.clause == "M3"  # p[1] neighbors x, so still barred


# -- contraption ---------------------------------------------------------------------


def test_contraption_cases():
    h, z, idx = contraption(complete(3), 0, 1)
    assert h == complete(2) and z == 1
    diamond = cone(path_graph(3))
    h, z, _ = contraption(diamond, 1, 3)  # the two degree-three vertices
    assert h == path_graph(3) or (h.n == 3 and h.m == 2 and h.degree(z) == 2)
    p3 = path_graph(3)
    h, z, _ = contraption(p3, 0, 1)
    assert h.n == 2 and h.m == 0
    with pytest.raises(InvalidInput):
        contraption(p3, 0, 2)


def test_contraption_counts_and_neighborhood():
    g = cone(cycle(5))
    for u, v in g.edges():
        h, z, idx = contraption(g, u, v)
        assert h.n == g.n - 1
        common = {w for w in range(g.n) if w not in (u, v) and g.has_edge(w, u) and g.has_edge(w, v)}
        assert {w for w in range(h.n) if h.has_edge(w, z)} == {idx[w] for w in common}


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=60, deadline=None)
def test_contraption_property(g):
    for u, v in g.edges()[:3]:
        h, z, idx = contraption(g, u, v)
        assert h.n == g.n - 1
        common = g.adj[u] & g.adj[v]
        got = h.adj[z]
        expect = 0
        for w in range(g.n):
            if (common >> w) & 1:
                expect |= 1 << idx[w]
        assert got == expect


def test_contraption_membership_preserved():
    # members with a qualifying edge stay members after contraption
    from obslab.suites import seeded_members_with_edge

    for g, (u, v) in seeded_members_with_edge(30, seed=5):
        h, _, _ = contraption(g, u, v)
        assert membership_E_t(h, None) is None


# -- crystallized vertices ----------------------------------------------------------


def test_is_crystallized_cases():
    diamond = cone(path_graph(3))
    deg3 = [v for v in range(4) if diamond.degree(v) == 3]
    for v in deg3:
        ok, cert = is_crystallized(diamond, v)
        assert ok and cert is not None
    ok, _ = is_crystallized(complete(3), 0)
    assert not ok
    gem = cone(path_graph(4))
    ok, cert = is_crystallized(gem, 4)
    assert ok
    z1, z2, s1, s2 = cert
    assert len(s1) + len(s2) == 2


def test_is_crystallized_empty_side_allowed():
    # a diamond certificate has one empty side
    diamond = cone(path_graph(3))
    ok, (z1, z2, s1, s2) = is_crystallized(diamond, 1)
    assert ok and (not s1 or not s2) and (s1 or s2)


def test_crystallized_sides_cover_the_neighborhood():
    # 0 sees the anchor edge 12, leaf 3 on side 1 and leaf 4 on side 2
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3), (2, 4), (0, 4)])
    sides = crystallized_sides(g, 0, 1, 2)
    assert sides == (frozenset({3}), frozenset({4}))
    assert sides != (frozenset({3}), frozenset())  # a certificate omitting leaf 4
    assert crystallized_sides(g, 0, 1, 3) is None  # 2 and 4 are not leaves of 1 or 3
    assert crystallized_sides(g, 0, 3, 4) is None  # not a triangle
    assert crystallized_sides(complete(3), 0, 1, 2) is None  # no leaf at all
    spiked = Graph.from_edges(5, list(g.edges()) + [(3, 4)])
    assert crystallized_sides(spiked, 0, 1, 2) is None  # leaves must be private


def test_apex_edge_destroys_clearness():
    host, c = plant_crystal(2, 1)
    assert is_clear_crystal(host, c)
    spiked = Graph.from_edges(host.n, list(host.edges()) + [(c.S[0], c.S[1])])
    assert validate_crystal(spiked, c) is None  # the clauses allow apex edges
    assert not is_clear_crystal(spiked, c)
