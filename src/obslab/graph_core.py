"""Bitset-backed simple graphs and the set primitives every other module consumes.

Vertices are dense integers 0..n-1.  Adjacency is stored as one Python int
per vertex (bit v of ``adj[u]`` set iff uv is an edge), which makes
neighborhood intersection, stability checks and path growing cheap: the
detectors downstream extend induced paths one vertex at a time and keep
their bans and pools as masks.

Graphs are immutable after construction; every operation here is pure.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidInput, ScaleLimit

# the most vertices any graph may have; the package builds none larger itself,
# so a count read from outside is checked against it before anything is sized
MAX_VERTICES = 10_000


def check_vertex_count(n: int) -> int:
    """n itself when a graph may have n vertices; InvalidInput otherwise, to
    be raised before anything sized by n is built."""
    if not 0 <= n <= MAX_VERTICES:
        raise InvalidInput(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    return n


def check_scale(g: Graph | Digraph, guard: int, what: str) -> None:
    """ScaleLimit, naming the search what, when g has more vertices than
    guard."""
    if g.n > guard:
        raise ScaleLimit(f"{what}: {g.n} vertices exceeds the guard of {guard}")


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_edges", "_atoms")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._atoms: tuple[int, ...] | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * check_vertex_count(n)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInput(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidInput(f"self-loop at {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            out = []
            for u in range(self.n):
                rest = self.adj[u] >> (u + 1)
                for k in bits(rest):
                    out.append((u, u + 1 + k))
            self._edges = tuple(out)
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- derived graphs -------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask()
        return Graph(self.n, tuple((full & ~a & ~(1 << v)) for v, a in enumerate(self.adj)))

    def relabel(self, perm: list[int]) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        adj = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << perm[u]
            adj[perm[v]] = row
        return Graph(self.n, tuple(adj))

    # -- traversal ------------------------------------------------------

    def neighborhood(self, mask: int) -> int:
        """The OR of the adjacency rows of mask: every vertex with a neighbor
        in mask.  A bit loop, not bits(): every traversal runs through it."""
        adj = self.adj
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
        return out

    def layers(self, src: int, allowed: int | None = None) -> Iterator[int]:
        """Breadth-first frontiers from src inside the allowed mask: the d-th
        is the set of vertices at distance exactly d.  None at all when src
        is not allowed.  Lazy: each frontier is expanded only when the next
        one is asked for, so a caller that stops at depth d pays for d
        expansions."""
        if allowed is None:
            allowed = self.full_mask()
        frontier = (1 << src) & allowed
        seen = frontier
        while frontier:
            yield frontier
            frontier = self.neighborhood(frontier) & allowed & ~seen
            seen |= frontier

    def bfs_dist(self, src: int, allowed: int | None = None) -> list[int]:
        """Distances from src inside the allowed mask; -1 where unreachable."""
        dist = [-1] * self.n
        for d, layer in enumerate(self.layers(src, allowed)):
            for v in bits(layer):
                dist[v] = d
        return dist

    def component_mask(self, src: int, allowed: int | None = None) -> int:
        """The vertices src reaches inside the allowed mask."""
        comp = 0
        for layer in self.layers(src, allowed):
            comp |= layer
        return comp

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def check_vertex_set(g: Graph, xs: Iterable[int]) -> int:
    """Validate xs against g and return it as a bitmask."""
    m = 0
    for v in xs:
        if not (0 <= v < g.n):
            raise InvalidInput(f"vertex {v} out of range for n={g.n}")
        m |= 1 << v
    return m


# -- set predicates -------------------------------------------------------


def induces(g: Graph, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> bool:
    """Whether g induces exactly the pattern (vertices, edges): the vertices
    are distinct, and g's edges among them are exactly the given pairs.  A
    vertex outside g raises InvalidInput.  The one test behind every check
    that a witness or structure is an induced subgraph of a fixed shape."""
    vs = tuple(vertices)
    vmask = check_vertex_set(g, vs)
    if vmask.bit_count() != len(vs):
        return False
    rows = dict.fromkeys(vs, 0)
    for u, v in edges:
        if u not in rows or v not in rows:
            return False
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    adj = g.adj
    return all(adj[v] & vmask == row for v, row in rows.items())


def is_complete_to(g: Graph, xs: Iterable[int] | int, ys: Iterable[int] | int) -> bool:
    """Every cross pair adjacent (vacuously true when either side is empty)."""
    xm = xs if isinstance(xs, int) else check_vertex_set(g, xs)
    ym = ys if isinstance(ys, int) else check_vertex_set(g, ys)
    return all((g.adj[v] & ym) == ym for v in bits(xm))


def is_anticomplete_to(g: Graph, xs: Iterable[int] | int, ys: Iterable[int] | int) -> bool:
    """No cross pair adjacent (vacuously true when either side is empty)."""
    xm = xs if isinstance(xs, int) else check_vertex_set(g, xs)
    ym = ys if isinstance(ys, int) else check_vertex_set(g, ys)
    return not (g.neighborhood(xm) & ym)


def stable_sets(rows: Sequence[int], pool: int, k: int) -> Iterator[int]:
    """The k-subsets of the mask pool with no two members joined in rows, as
    masks, in the order itertools.combinations gives over the sorted pool.

    rows[v] is the mask of the members v may not share a set with, as in
    Graph.adj; its own bit is never read.  One loop with its own stack, so
    k and the pool may be as large as a graph; k = 0 yields the empty set
    once.  A branch with fewer candidates left than members still needed is
    cut, which removes no set and keeps the order.  The one search behind
    every "first stable k-set" question: bicliques, anticomplete families,
    leaf grafts and the cliques of a k-tree (stable in the complement)."""
    if k <= 0:
        if k == 0:
            yield 0
        return
    chosen = 0
    members = []  # the bits of chosen, in the order they were taken
    stack = [pool]  # stack[i]: the candidates left for member i
    while stack:
        cand = stack[-1]
        depth = len(members)
        if cand.bit_count() < k - depth:
            stack.pop()
            if members:
                chosen ^= members.pop()
            continue
        low = cand & -cand
        cand ^= low
        stack[-1] = cand
        if depth + 1 == k:
            yield chosen | low
        else:
            members.append(low)
            chosen |= low
            stack.append(cand & ~rows[low.bit_length() - 1])


def is_clique(g: Graph, xs: Iterable[int] | int) -> bool:
    """Every pair adjacent; xs a vertex collection or a mask of g's vertices."""
    xm = xs if isinstance(xs, int) else check_vertex_set(g, xs)
    return all((g.adj[v] & xm) == xm & ~(1 << v) for v in bits(xm))


# -- clique-cutset atoms ----------------------------------------------------


def atoms(g: Graph) -> tuple[int, ...]:
    """The atoms of g as vertex masks: its maximal connected induced
    subgraphs without a clique cutset, the empty set counting as a clique.
    Any induced subgraph without a clique cutset (a hole, a wheel, a theta,
    a prism) lies inside one atom, and each atom meets the union of the
    atoms after it in a clique that lies inside one of them.  Computed once
    per graph.

    MCS-M numbers the vertices from the last to the first, each time the
    unnumbered vertex of highest label, and every unnumbered vertex that a
    path through unnumbered vertices of lower labels joins to it gains one
    label and becomes its neighbor in a minimal triangulation (Berry,
    Blair, Heggernes, Peyton, "Maximum cardinality search for computing
    minimal triangulations of graphs", Algorithmica 39, 2004).  A vertex
    whose label is no higher than that of the vertex numbered just before it
    generates a minimal separator: its triangulation neighbors numbered
    earlier.  In elimination order, the reverse of the numbering, each
    generator whose separator is a clique of g cuts the component of what is
    left that holds it, plus the separator, off as one atom (Berry,
    Pogorelcnik, Simonet, "An introduction to clique minimal separator
    decomposition", Algorithms 3, 2010)."""
    if g._atoms is not None:
        return g._atoms
    adj = g.adj
    unnumbered = g.full_mask()
    levels = [unnumbered]  # levels[w]: the unnumbered vertices of label w
    earlier = [0] * g.n  # each vertex's triangulation neighbors numbered before it
    order = []
    generators = 0
    last = -1
    for _ in range(g.n):
        while not levels[-1]:
            levels.pop()
        label = len(levels) - 1
        xbit = levels[label] & -levels[label]
        levels[label] ^= xbit
        unnumbered ^= xbit
        if label <= last:
            generators |= xbit
        last = label
        order.append(xbit.bit_length() - 1)
        # reached: what x gets to through the labels below the one at hand;
        # once every vertex of a higher label is next to it, each of them
        # gains a label whatever else it reaches, so it stops growing
        reached, around, below, above = xbit, adj[order[-1]], 0, unnumbered
        raised = []
        for level in levels:
            hit = around & level
            raised.append(hit)
            below |= level
            above ^= level
            front = hit
            while front and above & ~around:
                reached |= front
                around |= g.neighborhood(front)
                front = around & below & ~reached
        if raised[-1]:
            levels.append(0)
        for w, hit in enumerate(raised):
            if hit:
                levels[w] ^= hit
                levels[w + 1] |= hit
                for y in bits(hit):
                    earlier[y] |= xbit
    left = g.full_mask()
    out = []
    for x in reversed(order):
        sep = earlier[x]
        if generators >> x & 1 and is_clique(g, sep):
            part = g.component_mask(x, left & ~sep)
            out.append(part | sep)
            left ^= part
    if left:
        out.append(left)
    g._atoms = tuple(out)
    return g._atoms


# -- constructions --------------------------------------------------------


def induced_subgraph(g: Graph, xs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on xs plus the old-to-new index map."""
    xm = check_vertex_set(g, xs)
    old = list(bits(xm))
    index = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        row = 0
        for u in bits(g.adj[v] & xm):
            row |= 1 << index[u]
        adj.append(row)
    return Graph(len(old), tuple(adj)), index


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph plus the map from new vertices back to old edges."""
    edges = g.edges()
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


def subdivide(g: Graph, times: Mapping[tuple[int, int], int]) -> Graph:
    """Replace each keyed edge uv by a path with times[(u,v)] new inner vertices.

    Keys must be edges of g (either orientation); unkeyed edges are kept as
    they are, as is a key mapped to 0.  Original vertices keep their indices.
    """
    counts: dict[tuple[int, int], int] = {}
    for (u, v), k in times.items():
        if u > v:
            u, v = v, u
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise InvalidInput(f"({u},{v}) is not an edge of the graph")
        if k < 0:
            raise InvalidInput("subdivision count must be nonnegative")
        counts[(u, v)] = k
    new_edges: list[tuple[int, int]] = []
    nxt = g.n
    for u, v in g.edges():
        k = counts.get((u, v), 0)
        if k == 0:
            new_edges.append((u, v))
            continue
        chain = [u] + list(range(nxt, nxt + k)) + [v]
        nxt += k
        new_edges.extend(zip(chain, chain[1:]))
    return Graph.from_edges(nxt, new_edges)


def subdivide_all(g: Graph, k: int = 1) -> Graph:
    """Subdivide every edge k times (one-round full subdivision for k=1)."""
    return subdivide(g, {e: k for e in g.edges()})


# -- records --------------------------------------------------------------


class Record:
    """Base of the package's immutable value objects (witnesses, violations,
    decompositions, structures, outcomes).

    A subclass's own annotations, in order, are its fields, and a class-level
    value is that field's default; a dict, list or set default is copied for
    each instance.  Instances take their fields positionally or by keyword,
    compare equal when of the same type with equal fields, hash over the
    fields, refuse assignment, and run __post_init__ once the fields are set.
    An instance's __dict__ holds its fields and nothing else.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._from_call(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _from_call(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that leaves fields to keywords
        or defaults; TypeError unless the call gives each field once."""
        fields = cls._fields
        rest = fields[len(args) :]
        if len(args) > len(fields) or any(f not in rest for f in kwargs):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}, each once")
        values = list(args)
        for f in rest:
            if f in kwargs:
                values.append(kwargs[f])
            elif f in cls._defaults:
                value = cls._defaults[f]
                values.append(value.copy() if type(value) in (dict, list, set) else value)
            else:
                raise TypeError(f"{cls.__name__} is missing field {f!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__  # the fields, and nothing else

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self):
        body = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


# -- induced paths --------------------------------------------------------


class Path(Record):
    """An induced path, stored as its vertex sequence.

    Construct through path_from_vertices so the inducedness invariant holds:
    consecutive vertices adjacent, non-consecutive ones non-adjacent.
    """

    vertices: tuple[int, ...]

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def path_from_vertices(g: Graph, seq: Iterable[int]) -> Path:
    vs = tuple(seq)
    if len(vs) != len(set(vs)):
        raise InvalidInput("path repeats a vertex")
    if not induces(g, vs, zip(vs, vs[1:])):
        raise InvalidInput("sequence is not an induced path")
    return Path(vs)


# -- digraphs --------------------------------------------------------------


class Digraph:
    """Directed graph; (u,v) and (v,u) may coexist, self-arcs may not."""

    __slots__ = ("n", "out", "inn")

    def __init__(self, n: int, out: tuple[int, ...], inn: tuple[int, ...]):
        self.n = n
        self.out = out
        self.inn = inn

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        out = [0] * check_vertex_count(n)
        inn = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInput(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidInput(f"self-arc at {u} not allowed")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        return cls(n, tuple(out), tuple(inn))

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sum(a.bit_count() for a in self.out)})"


# -- serialization ---------------------------------------------------------


def graph_to_json_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def json_int(x, what: str) -> int:
    """x itself when it is a JSON integer; InvalidInput for anything else, so
    no float, string or bool read from outside is coerced."""
    # bool is a subclass of int, and JSON true is no integer
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInput(f"{what} {x!r} is not an integer")
    return x


def json_of(x, kind: type, what: str):
    """x itself when it is a JSON array (kind list) or object (kind dict);
    InvalidInput for anything else, so no object is read as the list of its
    keys and no string as the list of its characters."""
    if not isinstance(x, kind):
        name = "an array" if kind is list else "an object"
        raise InvalidInput(f"{what} must be {name}, got {x!r:.40}")
    return x


def text_int(word: str, what: str) -> int:
    """The value of a word of ASCII digits; InvalidInput for anything else, so
    no sign, space or underscore that int() would take is read from outside."""
    if not (word.isascii() and word.isdigit()):
        raise InvalidInput(f"{what} {word!r} is not a nonnegative integer")
    return int(word)


def graph_from_json_obj(obj: dict) -> Graph:
    try:
        obj = json_of(obj, dict, "graph")
        n = json_int(obj["n"], "n")
        edges = [
            (json_int(u, "vertex"), json_int(v, "vertex"))
            for u, v in json_of(obj["edges"], list, "edges")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        # InvalidInput from json_int is a ValueError and gets the same prefix
        raise InvalidInput(f"malformed graph object: {exc}") from exc
    return Graph.from_edges(n, edges)


def dumps_graph(g: Graph) -> str:
    """Canonical JSON text: {"n": ..., "edges": [[u,v] ...]} with u<v, lex sorted."""
    return json.dumps(graph_to_json_obj(g), separators=(",", ":"))


def loads_graph(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed graph JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInput("graph JSON must be an object")
    return graph_from_json_obj(obj)


def to_edge_list(g: Graph) -> str:
    """Plain text format: "n m" header then one "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise InvalidInput("edge-list text needs an 'n m' header")
    try:
        n, m = text_int(rows[0][0], "vertex count"), text_int(rows[0][1], "edge count")
        edges = [(text_int(a, "vertex"), text_int(b, "vertex")) for a, b in rows[1:]]
    except ValueError as exc:
        raise InvalidInput(f"malformed edge-list text: {exc}") from exc
    if len(edges) != m:
        raise InvalidInput(f"header declares {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)
