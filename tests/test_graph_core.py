import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab.errors import InvalidInput
from obslab.generators import complete, cycle, path_graph, wall
from obslab.graph_core import (
    MAX_VERTICES,
    Digraph,
    Graph,
    dumps_graph,
    from_edge_list,
    graph_from_json_obj,
    graph_to_json_obj,
    induced_subgraph,
    is_anticomplete_to,
    is_stable_set,
    line_graph,
    loads_graph,
    path_from_vertices,
    set_relation,
    subdivide,
    subdivide_all,
    text_int,
    to_edge_list,
)

from .conftest import graphs


def test_construction_rejects_bad_edges():
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(1, 1)])


def test_vertex_count_is_capped():
    with pytest.raises(InvalidInput):
        Graph.from_edges(MAX_VERTICES + 1, [])
    assert Graph.from_edges(MAX_VERTICES, []).n == MAX_VERTICES


@pytest.mark.parametrize("word", ["", "+1", "-1", " 1", "1 ", "1_0", "\u0661", "1.0"])
def test_text_int_takes_ascii_digits_only(word):
    with pytest.raises(InvalidInput):
        text_int(word, "vertex")


def test_basic_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.degree(1) == 2
    assert g.neighbors(1) == [0, 2]
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_induced_subgraph_identity_and_cases():
    k4 = complete(4)
    h, _ = induced_subgraph(k4, range(4))
    assert h == k4
    c5 = cycle(5)
    h, idx = induced_subgraph(c5, [1, 2, 3])
    assert h == path_graph(3)
    assert idx == {1: 0, 2: 1, 3: 2}
    with pytest.raises(InvalidInput):
        induced_subgraph(c5, [9])


def test_set_relation_cases():
    assert set_relation(complete(4), [0, 1], [2, 3]) == "complete"
    assert set_relation(Graph.from_edges(2, []), [0], [1]) == "anticomplete"
    p4 = path_graph(4)
    assert set_relation(p4, [0], [1, 3]) == "mixed"
    with pytest.raises(InvalidInput):
        set_relation(p4, [0, 1], [1, 2])


def test_is_stable_set():
    assert is_stable_set(cycle(4), [0, 2])
    assert not is_stable_set(complete(3), [0, 1])


def test_line_graph_small_cases():
    lg, emap = line_graph(path_graph(3))
    assert lg == complete(2)
    assert emap == ((0, 1), (1, 2))
    lg, _ = line_graph(complete(3))
    assert lg == complete(3)


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_line_graph_counts(g):
    lg, _ = line_graph(g)
    assert lg.n == g.m
    assert lg.m == sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n))


def test_subdivide_cases():
    assert subdivide(complete(3), {e: 1 for e in complete(3).edges()}).n == 6
    assert subdivide_all(complete(3), 1) == subdivide(complete(3), {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    # a fully once-subdivided triangle is a six-cycle up to labels
    s = subdivide_all(complete(3))
    assert s.n == 6 and s.m == 6 and all(s.degree(v) == 2 for v in range(6))
    g = path_graph(3)
    assert subdivide(g, {}) == g
    assert subdivide(g, {(0, 1): 0}) == g
    with pytest.raises(InvalidInput):
        subdivide(g, {(0, 2): 1})


@given(graphs(max_n=7), hst.integers(min_value=1, max_value=2))
@settings(max_examples=40, deadline=None)
def test_subdivide_preserves_branch_degrees(g, k):
    s = subdivide_all(g, k)
    for v in range(g.n):
        assert s.degree(v) == g.degree(v)


def test_path_validation():
    c5 = cycle(5)
    p = path_from_vertices(c5, [0, 1, 2])
    assert p.ends == (0, 2) and p.interior == (1,) and p.length == 2
    with pytest.raises(InvalidInput):
        path_from_vertices(c5, [0, 1, 2, 3, 4])  # closing chord 4-0
    with pytest.raises(InvalidInput):
        path_from_vertices(c5, [0, 2])


def _plain_distances(g, src, allowed):
    """Breadth-first distances over Python sets, from pairwise has_edge."""
    if src not in allowed:
        return {}
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = [u for u in sorted(allowed - dist.keys()) if any(g.has_edge(u, v) for v in frontier)]
        for u in nxt:
            dist[u] = dist[frontier[0]] + 1
        frontier = nxt
    return dist


@given(graphs(min_n=1, max_n=9), hst.data())
@settings(max_examples=80, deadline=None)
def test_traversals_match_set_definitions(g, data):
    vertex_sets = hst.sets(hst.integers(min_value=0, max_value=g.n - 1))
    src = data.draw(hst.integers(min_value=0, max_value=g.n - 1))
    some = data.draw(vertex_sets)
    # allowed by default, a drawn set, and the same set without src
    for allowed in (None, some | {src}, some - {src}):
        amask = None if allowed is None else sum(1 << v for v in allowed)
        dist = _plain_distances(g, src, set(range(g.n)) if allowed is None else allowed)
        depth = max(dist.values(), default=-1) + 1
        assert g.layers(src, amask) == [sum(1 << v for v in dist if dist[v] == d) for d in range(depth)]
        assert g.bfs_dist(src, amask) == [dist.get(v, -1) for v in range(g.n)]
        assert g.component_mask(src, amask) == sum(1 << v for v in dist)
    xs, ys = data.draw(vertex_sets), data.draw(vertex_sets)
    seen = {u for u in range(g.n) for x in xs if g.has_edge(u, x)}
    assert g.neighborhood(sum(1 << x for x in xs)) == sum(1 << u for u in seen)
    assert is_stable_set(g, xs) == (not any(g.has_edge(x, y) for x in xs for y in xs))
    assert is_anticomplete_to(g, xs, ys) == (not any(g.has_edge(x, y) for x in xs for y in ys))


def test_digraph():
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    assert d.has_arc(0, 1) and d.has_arc(1, 0) and not d.has_arc(2, 1)
    with pytest.raises(InvalidInput):
        Digraph.from_arcs(2, [(0, 0)])


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_json_round_trip(g):
    assert loads_graph(dumps_graph(g)) == g
    assert graph_from_json_obj(graph_to_json_obj(g)) == g


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_edge_list_round_trip(g):
    assert from_edge_list(to_edge_list(g)) == g


def test_json_canonical_text():
    g = Graph.from_edges(3, [(2, 0), (2, 1)])
    text = dumps_graph(g)
    assert text == '{"n":3,"edges":[[0,2],[1,2]]}'
    assert dumps_graph(loads_graph(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        '{"n":3.9,"edges":[[0,1.7],[true,2]]}',
        '{"n":3.0,"edges":[]}',
        '{"n":3,"edges":[[0,1.7]]}',
        '{"n":3,"edges":[[true,2]]}',
        '{"n":"3","edges":[]}',
        '{"n":true,"edges":[]}',
    ],
)
def test_json_rejects_non_integers(text):
    with pytest.raises(InvalidInput):
        loads_graph(text)


def test_edge_list_header_mismatch():
    with pytest.raises(InvalidInput):
        from_edge_list("2 2\n0 1\n")


def test_induced_edges_match_pair_enumeration_on_wall_bag():
    # cross-check against brute-force pair enumeration on a decomposition bag
    from obslab.treewidth import treewidth_exact

    g = wall(3)
    _, td = treewidth_exact(g)
    bag = sorted(max(td.bags, key=len))
    sub, idx = induced_subgraph(g, bag)
    expect = {
        (idx[u], idx[v])
        for i, u in enumerate(bag)
        for v in bag[i + 1 :]
        if g.has_edge(u, v)
    }
    assert set(sub.edges()) == {tuple(sorted(e)) for e in expect}


def test_complement_and_relabel():
    g = path_graph(3)
    assert g.complement() == Graph.from_edges(3, [(0, 2)])
    assert g.relabel([2, 1, 0]) == Graph.from_edges(3, [(2, 1), (1, 0)])


def test_greedy_independent_set_validates_by_pair_scan():
    # a greedy pass over a seeded graph, re-validated with the stability
    # predicate and an explicit pair scan
    from obslab.generators import random_graph
    from obslab.rng import SplitMix

    rng = SplitMix(13)
    for _ in range(10):
        g = random_graph(12, rng.next_u64(), 1, 2)
        picked = []
        banned = 0
        for v in range(g.n):
            if not (banned >> v) & 1:
                picked.append(v)
                banned |= g.adj[v] | (1 << v)
        assert is_stable_set(g, picked)
        for i, u in enumerate(picked):
            for w in picked[i + 1 :]:
                assert not g.has_edge(u, w)
