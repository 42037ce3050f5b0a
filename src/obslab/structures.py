"""Typed carriers and clause-by-clause validators for the bespoke objects:
phantoms, crystals, kaleidoscopes, contraptions and crystallized vertices.

All carriers are immutable value objects over a host Graph; the host itself
is passed to each validator rather than stored, so the same structure can be
re-checked against a rebuilt or deserialized graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput
from .graph_core import (
    Graph,
    bits,
    check_vertex_set,
    is_anticomplete_to,
    is_complete_to,
    is_stable_set,
    json_int,
    mask_of,
    path_from_vertices,
    text_int,
)


def ekey(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


def edges_inside(adj: Sequence[int], vmask: int) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v of the graph with adjacency rows adj inside
    the vertex mask vmask, by ascending u, then v."""
    out = []
    for u in bits(vmask):
        for v in bits(adj[u] & vmask):
            if v > u:
                out.append((u, v))
    return out


@dataclass(frozen=True)
class StructureViolation:
    clause: str
    detail: str


# -- phantoms ---------------------------------------------------------------


@dataclass(frozen=True)
class Phantom:
    """Layered expansion (Z_0, ..., Z_r; per-level edge maps).

    ``gamma[i-1]`` maps each edge of the host induced on layer i-1 to its
    fresh d-element common-neighbor set inside layer i.  Edge keys use the
    (min, max) convention.
    """

    layers: tuple[frozenset[int], ...]
    gamma: tuple[dict[tuple[int, int], frozenset[int]], ...]
    d: int

    @property
    def r(self) -> int:
        return len(self.layers) - 1

    def gamma_at(self, i: int) -> dict[tuple[int, int], frozenset[int]]:
        """The level-i map (1-based, domain = edges inside layer i-1)."""
        return self.gamma[i - 1]


def validate_phantom(g: Graph, p: Phantom) -> StructureViolation | None:
    """Check the layering and per-edge clauses; None means valid."""
    if len(p.gamma) != p.r:
        return StructureViolation("shape", f"{p.r} layers above base but {len(p.gamma)} maps")
    if p.d < 1:
        return StructureViolation("shape", f"per-edge set size must be >= 1, got {p.d}")
    for i, layer in enumerate(p.layers):
        if mask_of(layer) & ~g.full_mask():
            return StructureViolation("nesting", f"layer {i} leaves the host vertex range")
        if i > 0 and not layer >= p.layers[i - 1]:
            return StructureViolation("nesting", f"layer {i - 1} is not contained in layer {i}")
    for i in range(1, p.r + 1):
        below = mask_of(p.layers[i - 1])
        fresh = mask_of(p.layers[i]) & ~below
        dom = {ekey(*e) for e in edges_inside(g.adj, below)}
        got = set(p.gamma_at(i))
        if got != dom:
            missing = sorted(dom - got)
            extra = sorted(got - dom)
            return StructureViolation(
                "domain", f"level {i} map keyed on {extra or missing}, expected edges of layer {i - 1}"
            )
        taken = 0
        for e in sorted(got):
            gset = p.gamma_at(i)[e]
            gm = mask_of(gset)
            if len(gset) != p.d:
                return StructureViolation("size", f"level {i} edge {e} owns {len(gset)} vertices, not {p.d}")
            if gm & ~fresh:
                return StructureViolation("freshness", f"level {i} edge {e} reaches outside layer {i} minus layer {i - 1}")
            if not is_complete_to(g, mask_of(e), gm):
                return StructureViolation("completeness", f"ends of {e} not complete to its level-{i} set")
            if gm & taken:
                return StructureViolation("disjointness", f"level {i} edge {e} shares vertices with an earlier edge")
            taken |= gm
    return None


def sub_phantom(g: Graph, p: Phantom, x0: Iterable[int], i: int, rp: int) -> Phantom:
    """Restriction of p rooted at x0 inside layer i, of depth rp.

    Layer j of the result collects x_{j-1} plus the level-(i+j) sets of all
    edges currently inside x_{j-1}; the maps are the matching restrictions.
    """
    x0set = frozenset(x0)
    check_vertex_set(g, x0set)
    if i < 0 or rp < 0 or i + rp > p.r:
        raise InvalidInput(f"depth window [{i}, {i}+{rp}] outside phantom of depth {p.r}")
    if not x0set <= p.layers[i]:
        raise InvalidInput(f"base set is not contained in layer {i}")
    layers = [x0set]
    maps: list[dict[tuple[int, int], frozenset[int]]] = []
    cur = x0set
    for j in range(1, rp + 1):
        inside = edges_inside(g.adj, mask_of(cur))
        level = p.gamma_at(i + j)
        restricted = {ekey(*e): level[ekey(*e)] for e in inside}
        nxt = set(cur)
        for s in restricted.values():
            nxt |= s
        cur = frozenset(nxt)
        assert cur <= p.layers[i + j], "restriction escaped the enclosing layer"
        layers.append(cur)
        maps.append(restricted)
    return Phantom(tuple(layers), tuple(maps), p.d)


# -- crystals ----------------------------------------------------------------


@dataclass(frozen=True)
class Crystal:
    """Anchored tuple (side1_z, z, side2_z : z in S) at an edge z1 z2.

    sides maps each z in S to its pair (side adjacent to z1, side adjacent
    to z2); both sides have g vertices.
    """

    z1: int
    z2: int
    S: tuple[int, ...]
    sides: dict[int, tuple[frozenset[int], frozenset[int]]]

    @property
    def f(self) -> int:
        return len(self.S)

    @property
    def g(self) -> int:
        if not self.S:
            return 0
        return len(self.sides[self.S[0]][0])

    def vertex_set(self) -> frozenset[int]:
        out = set(self.S)
        for s1, s2 in self.sides.values():
            out |= s1 | s2
        return frozenset(out)

    def side_sets(self) -> list[frozenset[int]]:
        out = []
        for z in self.S:
            out.extend(self.sides[z])
        return out


@dataclass(frozen=True)
class CrystalSpec:
    """Shape of a crystal graph: k coned double stars, each with its pair of
    leaf counts (see generators.crystal_graph)."""

    k: int
    arms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.k < 1 or self.k != len(self.arms):
            raise InvalidInput("need k >= 1 double stars, one arm pair each")
        if any(a < 1 or b < 1 for a, b in self.arms):
            raise InvalidInput("leaf counts must be >= 1")


def validate_crystal(g: Graph, c: Crystal) -> StructureViolation | None:
    """Clause-by-clause check; raises InvalidInput when the anchors are not an edge."""
    check_vertex_set(g, (c.z1, c.z2))
    if not g.has_edge(c.z1, c.z2):
        raise InvalidInput(f"anchors {c.z1},{c.z2} are not adjacent")
    anchors = mask_of((c.z1, c.z2))
    smask = mask_of(c.S)
    if len(set(c.S)) != len(c.S) or smask & anchors:
        return StructureViolation("CR1", "apex set must avoid the anchors and repeat no vertex")
    if set(c.sides) != set(c.S):
        return StructureViolation("CR2", "side map must be keyed exactly by the apex set")
    gsize = c.g
    taken = 0
    for z in c.S:
        for i, side in enumerate(c.sides[z], start=1):
            sm = mask_of(side)
            if len(side) != gsize:
                return StructureViolation("CR2", f"side {i} of apex {z} has {len(side)} vertices, not {gsize}")
            if sm & (smask | anchors):
                return StructureViolation("CR2", f"side {i} of apex {z} meets the apexes or anchors")
            if sm & taken:
                return StructureViolation("CR2", f"side {i} of apex {z} overlaps another side")
            taken |= sm
            zi = c.z1 if i == 1 else c.z2
            zo = c.z2 if i == 1 else c.z1
            for x in side:
                if not g.has_edge(x, zi) or not g.has_edge(x, z) or g.has_edge(x, zo):
                    return StructureViolation(
                        "CR3", f"vertex {x} of side {i}, apex {z}: trace on (z1, z2, z) is not (z{i}, z)"
                    )
    return None


def is_clear_crystal(g: Graph, c: Crystal) -> bool:
    """S stable and all 2f side sets pairwise anticomplete stable sets."""
    if not is_stable_set(g, c.S):
        return False
    sides = c.side_sets()
    for i, s in enumerate(sides):
        if not is_stable_set(g, s):
            return False
        for t in sides[i + 1 :]:
            if not is_anticomplete_to(g, s, t):
                return False
    return True


def crystal_realizes_graph(g: Graph, c: Crystal) -> CrystalSpec | None:
    """CrystalSpec of the induced crystal graph on anchors + V(c), or None.

    Clearness makes the sides clean but leaves apex/anchor and apex/foreign-
    side adjacencies open; realization checks the whole glued-double-star
    pattern, so a non-None answer certifies an induced crystal graph.
    """
    if not is_clear_crystal(g, c):
        return None
    for z in c.S:
        if not (g.has_edge(z, c.z1) and g.has_edge(z, c.z2)):
            return None
        for other in c.S:
            if other == z:
                continue
            s1, s2 = c.sides[other]
            if not is_anticomplete_to(g, (z,), s1 | s2):
                return None
    gsize = c.g
    return CrystalSpec(k=c.f, arms=tuple((gsize, gsize) for _ in c.S))


# -- kaleidoscopes ------------------------------------------------------------


@dataclass(frozen=True)
class Kaleidoscope:
    """Path fan (a, x, y, W): w internally disjoint induced x-y paths avoiding a."""

    a: int
    x: int
    y: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def w(self) -> int:
        return len(self.paths)


def validate_kaleidoscope(g: Graph, k: Kaleidoscope) -> StructureViolation | None:
    check_vertex_set(g, (k.a, k.x, k.y))
    if len({k.a, k.x, k.y}) != 3:
        return StructureViolation("K1", "a, x, y must be three distinct vertices")
    if not (g.has_edge(k.x, k.a) and g.has_edge(k.a, k.y)) or g.has_edge(k.x, k.y):
        return StructureViolation("K1", "x-a-y must be an induced two-edge path")
    seen_interiors = 0
    for idx, seq in enumerate(k.paths):
        if seq[0] != k.x or seq[-1] != k.y:
            return StructureViolation("K2", f"path {idx} does not run from x to y")
        if k.a in seq:
            return StructureViolation("K2", f"path {idx} passes through a")
        try:
            path_from_vertices(g, seq)
        except InvalidInput as exc:
            return StructureViolation("K2", f"path {idx}: {exc}")
        interior = mask_of(seq[1:-1])
        if interior & seen_interiors:
            return StructureViolation("K2", f"path {idx} shares an interior vertex with an earlier path")
        seen_interiors |= interior
        if g.adj[k.a] & interior:
            return StructureViolation("K3", f"a has a neighbor in the interior of path {idx}")
    return None


def is_mirrored(
    g: Graph, k: Kaleidoscope, zset: Iterable[int], d: int
) -> tuple[bool, StructureViolation | None]:
    """Whether zset is d-mirrored by k; on failure also the violated clause."""
    zmask = check_vertex_set(g, zset)
    fan = mask_of((k.a,))
    for seq in k.paths:
        fan |= mask_of(seq)
    if zmask & fan:
        return False, StructureViolation("M1", "set meets the fan or its apex")
    if (g.adj[k.a] & zmask).bit_count() > 1:
        return False, StructureViolation("M2", "apex has more than one neighbor in the set")
    for z in bits(zmask):
        for idx, seq in enumerate(k.paths):
            pm = mask_of(seq)
            near_ends = (g.adj[k.x] & pm) | (g.adj[k.y] & pm) | mask_of((k.x, k.y))
            if g.adj[z] & near_ends:
                return False, StructureViolation(
                    "M3", f"{z} touches the closed end-neighborhoods of path {idx}"
                )
            if (g.adj[z] & pm).bit_count() < d:
                return False, StructureViolation(
                    "M3", f"{z} has fewer than {d} neighbors on path {idx}"
                )
    return True, None


# -- contraption ---------------------------------------------------------------


def contraption(g: Graph, z1: int, z2: int) -> tuple[Graph, int, dict[int, int]]:
    """Contract the edge z1 z2, then keep only the common neighborhood at the
    merged vertex.

    Remaining vertices keep their relative order; the merged vertex is
    appended last.  Returns (graph, merged index, old-to-new map); z1 and z2
    both map to the merged index.
    """
    check_vertex_set(g, (z1, z2))
    if not g.has_edge(z1, z2):
        raise InvalidInput(f"{z1},{z2} is not an edge")
    common = g.adj[z1] & g.adj[z2]
    rest = [v for v in range(g.n) if v not in (z1, z2)]
    index = {v: i for i, v in enumerate(rest)}
    zed = len(rest)
    edges = []
    for u, v in g.edges():
        if u in (z1, z2) or v in (z1, z2):
            continue
        edges.append((index[u], index[v]))
    for v in bits(common):
        edges.append((index[v], zed))
    index[z1] = zed
    index[z2] = zed
    return Graph.from_edges(zed + 1, edges), zed, index


# -- crystallized vertices -------------------------------------------------------


def crystallized_sides(
    h: Graph, z: int, z1: int, z2: int
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The sides (s1, s2) certifying z as crystallized at the anchor edge
    z1 z2, or None: z, z1, z2 is a triangle and every other neighbor of z has
    neighborhood exactly {z, z1} (side 1) or {z, z2} (side 2), and there is
    at least one such neighbor."""
    if not (h.has_edge(z1, z2) and h.has_edge(z, z1) and h.has_edge(z, z2)):
        return None
    rest = h.adj[z] & ~mask_of((z1, z2))
    s1 = frozenset(x for x in bits(rest) if h.adj[x] == mask_of((z, z1)))
    s2 = frozenset(x for x in bits(rest) if h.adj[x] == mask_of((z, z2)))
    if not rest or mask_of(s1 | s2) != rest:
        return None
    return s1, s2


def is_crystallized(
    h: Graph, z: int
) -> tuple[bool, tuple[int, int, frozenset[int], frozenset[int]] | None]:
    """Search z's neighborhood for an anchor edge with crystallized sides;
    returns the lexicographically least certificate."""
    check_vertex_set(h, (z,))
    for z1, z2 in itertools.combinations(h.neighbors(z), 2):
        sides = crystallized_sides(h, z, z1, z2)
        if sides is not None:
            return True, (z1, z2, *sides)
    return False, None


# -- serialization -----------------------------------------------------------------


def phantom_to_json_obj(p: Phantom) -> dict:
    return {
        "d": p.d,
        "layers": [sorted(layer) for layer in p.layers],
        "gamma": [
            {f"{u}-{v}": sorted(s) for (u, v), s in sorted(level.items())} for level in p.gamma
        ],
    }


def phantom_from_json_obj(obj: dict) -> Phantom:
    try:
        layers = tuple(frozenset(json_int(v, "vertex") for v in layer) for layer in obj["layers"])
        gamma = []
        for level in obj["gamma"]:
            entry = {}
            for key, vals in level.items():
                u, v = (text_int(x, "gamma key") for x in key.split("-"))
                entry[ekey(u, v)] = frozenset(json_int(x, "vertex") for x in vals)
            gamma.append(entry)
        return Phantom(layers, tuple(gamma), json_int(obj["d"], "d"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed phantom object: {exc}") from exc


def crystal_to_json_obj(c: Crystal) -> dict:
    return {
        "z1": c.z1,
        "z2": c.z2,
        "S": list(c.S),
        "sides": {str(z): [sorted(c.sides[z][0]), sorted(c.sides[z][1])] for z in c.S},
    }


def crystal_from_json_obj(obj: dict) -> Crystal:
    try:
        s = tuple(json_int(z, "apex") for z in obj["S"])
        sides = {}
        for key, pair in obj["sides"].items():
            a, b = (frozenset(json_int(x, "vertex") for x in side) for side in pair)
            sides[text_int(key, "sides key")] = (a, b)
        return Crystal(json_int(obj["z1"], "z1"), json_int(obj["z2"], "z2"), s, sides)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed crystal object: {exc}") from exc


def kaleidoscope_to_json_obj(k: Kaleidoscope) -> dict:
    return {"a": k.a, "x": k.x, "y": k.y, "paths": [list(p) for p in k.paths]}


def kaleidoscope_from_json_obj(obj: dict) -> Kaleidoscope:
    try:
        paths = tuple(tuple(json_int(v, "vertex") for v in p) for p in obj["paths"])
        a, x, y = (json_int(obj[key], key) for key in ("a", "x", "y"))
        return Kaleidoscope(a, x, y, paths)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed kaleidoscope object: {exc}") from exc
