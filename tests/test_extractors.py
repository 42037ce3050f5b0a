import pytest

from obslab import extractors as ext
from obslab.detectors import contains_induced, is_k_tree
from obslab.errors import InvalidInput, ScaleLimit
from obslab.generators import (
    complete,
    cone,
    k_tree_random,
    path_graph,
    plant_crystal,
    plant_phantom,
    plant_phantom_in,
)
from obslab.graph_core import Graph
from obslab.rng import SplitMix
from obslab.structures import crystallized_sides, is_clear_crystal, is_crystallized, validate_crystal


# -- crystallized vertex extraction -------------------------------------------


def test_find_crystallized_vertex_diamond_and_gem():
    diamond = cone(path_graph(3))
    z, cert = find_ok(diamond)
    assert diamond.degree(z) == 3
    gem = cone(path_graph(4))
    z, cert = find_ok(gem)
    ok, _ = is_crystallized(gem, z)
    assert ok


def find_ok(g):
    z, cert = ext.find_crystallized_vertex(g)
    ok, _ = is_crystallized(g, z)
    assert ok
    z1, z2, s1, s2 = cert
    assert crystallized_sides(g, z, z1, z2) == (s1, s2)
    return z, cert


def test_find_crystallized_vertex_rejects():
    with pytest.raises(InvalidInput):
        ext.find_crystallized_vertex(complete(3))
    with pytest.raises(InvalidInput):
        ext.find_crystallized_vertex(path_graph(5))


def test_find_crystallized_vertex_seeded_sweep():
    rng = SplitMix(0)
    for _ in range(200):
        n = 4 + rng.below(9)
        g = k_tree_random(2, n, rng.next_u64())
        find_ok(g)


# -- clearing -------------------------------------------------------------------


def test_clear_crystal_clean_input():
    host, c = plant_crystal(3, 3)
    out = ext.clear_crystal(host, c, 1, 1)
    assert not isinstance(out, ext.HypothesisViolation)
    assert is_clear_crystal(host, out)
    assert out.vertex_set() <= c.vertex_set()
    assert out.f == 1 and out.g == 1


def test_clear_crystal_blocked_input():
    # join every cross pair of the two sides so no anticomplete pair exists
    host, c = plant_crystal(1, 2)
    s1, s2 = c.sides[c.S[0]]
    edges = list(host.edges()) + [(a, b) for a in s1 for b in s2]
    blocked = Graph.from_edges(host.n, edges)
    out = ext.clear_crystal(blocked, c, 1, 1)
    assert isinstance(out, ext.HypothesisViolation)
    assert out.step == "side-pairing"


def test_clear_crystal_group_step_blocked():
    # sides are clean per apex but every apex pair is joined
    host, c = plant_crystal(2, 2)
    edges = list(host.edges()) + [(c.S[0], c.S[1])]
    tangled = Graph.from_edges(host.n, edges)
    out = ext.clear_crystal(tangled, c, 2, 1)
    assert isinstance(out, ext.HypothesisViolation)
    assert out.step == "group-selection"


def test_clear_crystal_rejects_invalid():
    host, c = plant_crystal(1, 1)
    from obslab.structures import Crystal

    wrong = Crystal(0, 1, c.S, {c.S[0]: (c.sides[c.S[0]][1], c.sides[c.S[0]][0])})
    with pytest.raises(InvalidInput):
        ext.clear_crystal(host, wrong, 1, 1)


def test_clear_crystal_sweep():
    cleared = 0
    for seed in range(100):
        f, g = 1 + seed % 2, 1 + (seed // 2) % 2
        host, c = plant_crystal(3 * f + 2, 3 * g + 2, noise_seed=seed, noise_num=1, noise_den=24)
        out = ext.clear_crystal(host, c, f, g)
        assert not isinstance(out, ext.HypothesisViolation)
        assert is_clear_crystal(host, out)
        assert out.vertex_set() <= c.vertex_set()
        cleared += 1
    assert cleared == 100


# -- phantom to crystal ------------------------------------------------------------


def test_phantom_to_crystal_base_case():
    host, p = plant_phantom(complete(2), 2, 0)
    out = ext.phantom_to_crystal(host, p, 1, 1)
    assert out.variant == "clique-family"
    assert out.payload == (frozenset(),)


def test_phantom_to_crystal_depth_one_is_clique_family():
    host, p = plant_phantom(complete(2), 2, 1)
    out = ext.phantom_to_crystal(host, p, 1, 1)
    assert out.variant == "clique-family"
    (k1,) = out.payload
    assert len(k1) == 1 and k1 <= p.gamma_at(1)[(0, 1)]
    assert all(host.has_edge(u, b) for u in k1 for b in (0, 1))


def test_phantom_to_crystal_depth_two_is_crystal():
    host, p = plant_phantom(complete(2), 2, 2)
    out = ext.phantom_to_crystal(host, p, 1, 1)
    assert out.variant == "crystal"
    c = out.payload
    assert validate_crystal(host, c) is None
    assert set(c.S) <= set(p.gamma_at(1)[(0, 1)])
    found = ext.brute_force_crystal(host, 1, 1)
    assert found is not None


def test_phantom_to_crystal_preconditions():
    host, p = plant_phantom(complete(2), 3, 1)
    with pytest.raises(InvalidInput):
        ext.phantom_to_crystal(host, p, 1, 1)  # d != f+g
    host3, p3 = plant_phantom(complete(3), 2, 1)
    with pytest.raises(InvalidInput):
        ext.phantom_to_crystal(host3, p3, 1, 1)  # base not a 2-clique


def test_phantom_to_crystal_trace_replay():
    host, p = plant_phantom(complete(2), 3, 2, seed=8, density="coned")
    out1 = ext.phantom_to_crystal(host, p, 1, 2)
    out2 = ext.phantom_to_crystal(host, p, 1, 2)
    assert out1 == out2


# -- phantom to cone tree -----------------------------------------------------------


def _triangle_fixture(d_edge, r, seed=0, density="minimal"):
    host, p = plant_phantom(complete(3), d_edge, r, seed=seed, density=density)
    return host, p


def test_cone_tree_base_case():
    host, p = _triangle_fixture(2, 0)
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    assert out.variant == "cone-tree"
    assert out.payload.vertex_set() == {2} and out.payload.r == 0


def test_cone_tree_minimal_gives_crystal():
    host, p = _triangle_fixture(2, 1)
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    assert out.variant == "crystal"
    c = out.payload
    assert validate_crystal(host, c) is None
    assert c.S == (2,)
    s1, s2 = c.sides[2]
    assert s1 <= p.gamma_at(1)[(0, 2)] and s2 <= p.gamma_at(1)[(1, 2)]


def test_cone_tree_coned_gives_tree():
    host, p = _triangle_fixture(2, 1, density="coned")
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    assert out.variant == "cone-tree"
    tree = out.payload
    assert tree.root == 2 and tree.r == 1 and len(tree.vertex_set()) == 2
    for v in tree.vertex_set():
        assert host.has_edge(0, v) or v == 0
        assert host.has_edge(1, v) or v == 1


def test_cone_tree_shortfall_reported():
    host, p = _triangle_fixture(2, 1)
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=2, g=1, h=3, t=4)
    assert isinstance(out, ext.HypothesisViolation)
    assert out.step == "anticomplete-selection"
    assert out.available < out.needed


def test_cone_tree_preconditions():
    host, p = _triangle_fixture(2, 1)
    with pytest.raises(InvalidInput):
        ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=0, g=1, h=3, t=4)
    with pytest.raises(InvalidInput):
        ext.phantom_to_cone_tree(host, [0, 1], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    # context vertex adjacent to z breaks the neighborhood precondition
    bigger = Graph.from_edges(host.n + 1, list(host.edges()) + [(2, host.n)])
    with pytest.raises(InvalidInput):
        ext.phantom_to_cone_tree(
            bigger, [0, 1, 2, host.n], 0, 1, 2, p, d=1, g=1, h=4, t=4
        )


def test_cone_tree_class_obstruction_mined():
    # force a crowded fan: every first-level vertex of one fan edge sees a
    # context vertex, with the bound driven down by tiny h-free params
    host, p = _triangle_fixture(3, 1)
    extra = host.n
    edges = list(host.edges()) + [(extra, w) for w in p.gamma_at(1)[(0, 2)]]
    # keep the context-set neighborhood lawful: extra sits outside the triangle
    grown = Graph.from_edges(host.n + 1, edges)
    out = ext.phantom_to_cone_tree(
        grown, [0, 1, 2, extra], 0, 1, 2, p, d=1, g=1, h=4, t=1
    )
    assert isinstance(out, (ext.ClassObstruction, ext.HypothesisViolation))
    if isinstance(out, ext.ClassObstruction):
        assert out.kind in ("biclique", "clique")


def test_cone_tree_deeper_tree_with_extension():
    # densify the base triangle, then extend the planted host one level at a
    # time so the graft branch recurses twice
    host, p = plant_phantom(complete(3), 2, 2, seed=1, density="coned")
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    assert out.variant in ("crystal", "cone-tree")
    if out.variant == "cone-tree":
        assert out.payload.r == 2


# -- growing -------------------------------------------------------------------------


def test_grow_diamond_from_triangle():
    diamond = cone(path_graph(3))
    host, p = plant_phantom(complete(3), 2, 1, seed=0)
    z, (z1, z2, s1, s2) = ext.find_crystallized_vertex(diamond)
    emb = {z1: 0, z2: 1, z: 2}
    grown = ext.grow_2_tree(host, diamond, emb, p, d=1, g=1, h=3, t=4)
    assert isinstance(grown, dict)
    assert len(grown) == 4
    for u in range(4):
        for v in range(u + 1, 4):
            assert diamond.has_edge(u, v) == host.has_edge(grown[u], grown[v])


def test_grow_rejects_triangle_target():
    host, p = plant_phantom(complete(3), 2, 1, seed=0)
    with pytest.raises(InvalidInput):
        ext.grow_2_tree(host, complete(3), {0: 0, 1: 1, 2: 2}, p, d=1, g=1, h=3, t=4)


def test_grow_two_rounds_to_five_vertices():
    # target: diamond plus one extra leaf hanging on a side edge; its core
    # after stripping the crystallized vertex's leaves is itself a diamond,
    # so reaching it takes two growth rounds from a bare triangle
    diamond = cone(path_graph(3))
    target = Graph.from_edges(5, list(diamond.edges()) + [(0, 4), (3, 4)])
    assert is_k_tree(target, 2)
    host1, p1 = plant_phantom(complete(3), 2, 1, seed=0)
    z, (z1, z2, s1, s2) = ext.find_crystallized_vertex(diamond)
    emb1 = ext.grow_2_tree(host1, diamond, {z1: 0, z2: 1, z: 2}, p1, d=1, g=1, h=3, t=4)
    assert isinstance(emb1, dict)
    z, (z1, z2, s1, s2) = ext.find_crystallized_vertex(target)
    core = sorted(set(range(5)) - (s1 | s2))
    core_graph_edges = [
        (core.index(u), core.index(v)) for u, v in target.edges() if u in core and v in core
    ]
    core_graph = Graph.from_edges(len(core), core_graph_edges)
    diamond_match = contains_induced(diamond, core_graph)
    assert diamond_match is not None
    emb_core = {cv: emb1[diamond_match[i]] for i, cv in enumerate(core)}
    host2, p2 = plant_phantom_in(
        host1, {emb_core[z1], emb_core[z2], emb_core[z]}, 2, 1, seed=3
    )
    emb2 = ext.grow_2_tree(host2, target, emb_core, p2, d=1, g=1, h=4, t=4)
    assert isinstance(emb2, dict)
    for u in range(5):
        for v in range(u + 1, 5):
            assert target.has_edge(u, v) == host2.has_edge(emb2[u], emb2[v])


# -- brute-force oracle ---------------------------------------------------------------


def test_brute_force_crystal_cases():
    gem = cone(path_graph(4))
    c = ext.brute_force_crystal(gem, 1, 1)
    assert c is not None and validate_crystal(gem, c) is None
    assert ext.brute_force_crystal(complete(4), 1, 1) is None
    with pytest.raises(ScaleLimit):
        ext.brute_force_crystal(complete(30), 1, 1)


def test_brute_force_confirms_extractor():
    for seed in (0, 1, 2, 3):
        host, p = plant_phantom(complete(2), 2, 2, seed=seed)
        out = ext.phantom_to_crystal(host, p, 1, 1)
        if out.variant == "crystal" and host.n <= 24:
            assert ext.brute_force_crystal(host, 1, 1) is not None


def _realize_2_tree(nabla, seed):
    """Drive the full growth induction: realize the 2-tree inside a host that
    starts as a bare triangle and gains fresh layered material every round."""
    rng = SplitMix(seed)

    def rec(target_vertices):
        sub_edges = [
            (target_vertices.index(u), target_vertices.index(v))
            for u, v in nabla.edges()
            if u in target_vertices and v in target_vertices
        ]
        sub = Graph.from_edges(len(target_vertices), sub_edges)
        if sub.n == 3:
            host = complete(3)
            return host, {v: i for i, v in enumerate(target_vertices)}
        z_s, (z1_s, z2_s, s1_s, s2_s) = ext.find_crystallized_vertex(sub)
        back = dict(enumerate(target_vertices))
        z, z1, z2 = back[z_s], back[z1_s], back[z2_s]
        dropped = {back[x] for x in s1_s | s2_s}
        core = [v for v in target_vertices if v not in dropped]
        host, emb = rec(core)
        g_need = max(len(s1_s), len(s2_s), 1)
        host, p = plant_phantom_in(
            host, {emb[z1], emb[z2], emb[z]}, 1 + g_need, 1, seed=rng.next_u64()
        )
        grown = ext.grow_2_tree(
            host, sub, {sub_i: emb[back[sub_i]] for sub_i in range(sub.n) if back[sub_i] in core},
            p, d=1, g=g_need, h=len(core), t=4,
        )
        assert isinstance(grown, dict), grown
        return host, {back[sub_i]: img for sub_i, img in grown.items()}

    return rec(list(range(nabla.n)))


def test_grow_full_induction_on_random_2_trees():
    rng = SplitMix(6)
    for _ in range(20):
        n = 4 + rng.below(6)
        nabla = k_tree_random(2, n, rng.next_u64())
        host, emb = _realize_2_tree(nabla, rng.next_u64())
        assert sorted(emb) == list(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                assert nabla.has_edge(u, v) == host.has_edge(emb[u], emb[v])
