import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from obslab.detectors import Witness
from obslab.errors import InvalidInput
from obslab.extractors import ClassObstruction, ConeTree, ExtractionOutcome, HypothesisViolation
from obslab.generators import complete, cycle, path_graph, wall
from obslab.graph_core import (
    MAX_VERTICES,
    Digraph,
    Graph,
    Path,
    dumps_graph,
    from_edge_list,
    graph_from_json_obj,
    graph_to_json_obj,
    induced_subgraph,
    induces,
    is_anticomplete_to,
    line_graph,
    loads_graph,
    path_from_vertices,
    subdivide,
    subdivide_all,
    text_int,
    to_edge_list,
)
from obslab.structures import Crystal, CrystalSpec, Kaleidoscope, Phantom, StructureViolation
from obslab.treewidth import DecompositionViolation, TreeDecomposition

from .conftest import graphs
from .subset_oracles import is_stable_set, set_relation


def test_construction_rejects_bad_edges():
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(1, 1)])


def test_vertex_count_is_capped():
    with pytest.raises(InvalidInput):
        Graph.from_edges(MAX_VERTICES + 1, [])
    assert Graph.from_edges(MAX_VERTICES, []).n == MAX_VERTICES


def test_arc_count_is_capped_before_any_row():
    with pytest.raises(InvalidInput, match="vertex count"):
        Digraph.from_arcs(10**12, [])
    assert Digraph.from_arcs(MAX_VERTICES, []).n == MAX_VERTICES


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


def induces_by_pairs(g, vertices, edges):
    """The oracle for induces, on vertices of g: a plain scan of every vertex
    pair with has_edge, compared with the given pairs as unordered sets."""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    have = {frozenset((u, v)) for i, u in enumerate(vs) for v in vs[i + 1 :] if g.has_edge(u, v)}
    return have == {frozenset(e) for e in edges}


@given(graphs(max_n=7), hst.data())
@settings(max_examples=300, deadline=None)
def test_induces_matches_the_pair_scan(g, data):
    # vertex lists may repeat a vertex; the edge list is g's own edges among
    # them, every other one reversed, with up to two pairs flipped and up to
    # one pair that may be a loop or leave the list
    vs = data.draw(hst.lists(hst.integers(0, g.n - 1), max_size=6)) if g.n else []
    pairs = list(itertools.combinations(vs, 2))
    flips = data.draw(hst.sets(hst.sampled_from(range(len(pairs))), max_size=2)) if pairs else set()
    edges = [
        (v, u) if i % 2 else (u, v)
        for i, (u, v) in enumerate(pairs)
        if g.has_edge(u, v) != (i in flips)
    ]
    edges += data.draw(hst.lists(hst.tuples(hst.integers(-1, 8), hst.integers(-1, 8)), max_size=1))
    assert induces(g, vs, edges) == induces_by_pairs(g, vs, edges)


def test_induces_refuses_a_vertex_outside_the_graph():
    for v in (-1, 5, 2**70):
        with pytest.raises(InvalidInput):
            induces(cycle(5), [0, v], [(0, v)])


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
        assert list(g.layers(src, amask)) == [sum(1 << v for v in dist if dist[v] == d) for d in range(depth)]
        assert g.bfs_dist(src, amask) == [dist.get(v, -1) for v in range(g.n)]
        assert g.component_mask(src, amask) == sum(1 << v for v in dist)
    xs, ys = data.draw(vertex_sets), data.draw(vertex_sets)
    seen = {u for u in range(g.n) for x in xs if g.has_edge(u, x)}
    assert g.neighborhood(sum(1 << x for x in xs)) == sum(1 << u for u in seen)
    assert is_stable_set(g, xs) == (not any(g.has_edge(x, y) for x in xs for y in xs))
    assert is_anticomplete_to(g, xs, ys) == (not any(g.has_edge(x, y) for x in xs for y in ys))


@given(graphs(min_n=1, max_n=9), hst.data())
@settings(max_examples=60, deadline=None)
def test_partly_consumed_layers_are_a_prefix(g, data):
    src = data.draw(hst.integers(min_value=0, max_value=g.n - 1))
    amask = data.draw(hst.integers(min_value=0, max_value=g.full_mask()))
    k = data.draw(hst.integers(min_value=0, max_value=g.n + 1))
    full = list(g.layers(src, amask))
    part = g.layers(src, amask)
    head = list(itertools.islice(part, k))
    # a second search from the same end, run while the first is suspended
    assert list(g.layers(src, amask)) == full
    assert head == full[:k] and head + list(part) == full


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


@pytest.mark.parametrize("edges", [[[0, 1], [1, 0]], [[1, 2], [0, 1], [1, 2]]])
def test_json_reader_refuses_a_repeated_edge(edges):
    u, v = edges[-1]
    with pytest.raises(InvalidInput, match=rf"edge \({u},{v}\) is listed twice"):
        graph_from_json_obj({"n": 3, "edges": edges})


@pytest.mark.parametrize("text", ["3 2\n0 1\n1 0\n", "3 3\n1 2\n0 1\n1 2\n"])
def test_edge_list_reader_refuses_a_repeated_edge(text):
    u, v = text.splitlines()[-1].split()
    with pytest.raises(InvalidInput, match=rf"edge \({u},{v}\) is listed twice"):
        from_edge_list(text)


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


# -- records ------------------------------------------------------------------

# every record class, with the fields of two different instances by keyword
RECORDS = [
    (Path, {"vertices": (0, 1, 2)}, {"vertices": (0, 1)}),
    (
        Witness,
        {"kind": "theta", "vertices": (0, 1), "roles": {0: "a"}, "detail": ()},
        {"kind": "prism", "vertices": (0, 1), "roles": {}, "detail": ()},
    ),
    (StructureViolation, {"clause": "Z0", "detail": "empty"}, {"clause": "Z1", "detail": "empty"}),
    (Phantom, {"layers": (frozenset({0}),), "gamma": (), "d": 1}, {"layers": (frozenset({0}),), "gamma": (), "d": 2}),
    (
        Crystal,
        {"z1": 0, "z2": 1, "S": (2,), "sides": {2: (frozenset({3}), frozenset({4}))}},
        {"z1": 0, "z2": 1, "S": (), "sides": {}},
    ),
    (CrystalSpec, {"k": 1, "arms": ((1, 2),)}, {"k": 1, "arms": ((2, 1),)}),
    (Kaleidoscope, {"a": 0, "x": 1, "y": 2, "paths": ((1, 3, 2),)}, {"a": 0, "x": 2, "y": 1, "paths": ((2, 3, 1),)}),
    (
        HypothesisViolation,
        {"step": "fan", "detail": "short", "needed": 3, "available": 1},
        {"step": "fan", "detail": "short", "needed": 0, "available": 0},
    ),
    (ClassObstruction, {"kind": "clique", "vertices": (0, 1, 2)}, {"kind": "biclique", "vertices": (0, 1, 2)}),
    (
        ConeTree,
        {"root": 0, "parent": {1: 0}, "level": {0: 0, 1: 1}, "d": 1, "r": 1},
        {"root": 1, "parent": {0: 1}, "level": {1: 0, 0: 1}, "d": 1, "r": 1},
    ),
    (
        ExtractionOutcome,
        {"variant": "cone-tree", "payload": None, "trace": (("root", 0),)},
        {"variant": "crystal", "payload": None, "trace": ()},
    ),
    (
        TreeDecomposition,
        {"bags": (frozenset({0, 1}),), "edges": ()},
        {"bags": (frozenset({0}), frozenset({1})), "edges": ((0, 1),)},
    ),
    (DecompositionViolation, {"axiom": "edge", "detail": "(0,1)"}, {"axiom": "vertex", "detail": "0"}),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, other):
    a = cls(**fields)
    assert a == cls(*fields.values()) and not a != cls(**fields)
    assert a != cls(**other) and a != tuple(fields.values())
    assert all(getattr(a, name) == value for name, value in fields.items())
    if all(_hashable(v) for v in fields.values()):
        assert hash(a) == hash(cls(**fields))
    else:
        with pytest.raises(TypeError):
            hash(a)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == f"{cls.__name__}({body})"
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) == fields[name]


def test_record_construction():
    assert StructureViolation("Z0", "empty") != DecompositionViolation("Z0", "empty")
    first, second = Witness("x", (1,)), Witness("x", (1,))
    assert first.roles == {} and first.roles is not second.roles and first.detail == ()
    assert HypothesisViolation("fan", "short") == HypothesisViolation("fan", "short", 0, 0)
    bags, edges = (frozenset({0, 1}), frozenset({1, 2})), ((0, 1),)
    assert TreeDecomposition(bags=bags, edges=edges) == TreeDecomposition(bags, edges)
    assert TreeDecomposition(bags, edges=edges).width == 1
    with pytest.raises(InvalidInput):
        CrystalSpec(0, ())
    with pytest.raises(InvalidInput):
        CrystalSpec(k=1, arms=((0, 1),))
    for args, kwargs in [((), {}), (((0,), 1), {}), (((0,),), {"vertices": (1,)}), ((), {"vertex": (0,)})]:
        with pytest.raises(TypeError):
            Path(*args, **kwargs)
