"""Executable forms of the constructive arguments.

Each extractor runs its case analysis literally: it either returns a
certified structure (re-validated through the structures module before it is
handed back), or a HypothesisViolation naming the selection step that ran
out of material.  Selections break ties smallest-index-first, so outputs are
reproducible and the recorded trace is a faithful log of the choices made.
"""

from __future__ import annotations

import itertools

from .detectors import anticomplete_family, k_forest_order
from .errors import InvalidInput
from .graph_core import (
    Graph,
    Record,
    bits,
    check_scale,
    check_vertex_set,
    edges_inside,
    induced_subgraph,
    induces,
    is_anticomplete_to,
    is_clique,
    mask_of,
    stable_sets,
)
from .structures import (
    Crystal,
    Phantom,
    crystallized_sides,
    ekey,
    is_clear_crystal,
    is_crystallized,
    sub_phantom,
    validate_crystal,
    validate_phantom,
)


class HypothesisViolation(Record):
    """A proof step found too little material; names the step and shortfall."""

    step: str
    detail: str
    needed: int = 0
    available: int = 0


class ClassObstruction(Record):
    """Diagnostic payload when a size assertion fails: the violating
    configuration is mined for the biclique or clique witness it implies."""

    kind: str
    vertices: tuple[int, ...]


class ConeTree(Record):
    """Rooted tree subgraph with per-vertex levels; shaped like the regular
    tree with root degree d and inner degree d+1."""

    root: int
    parent: dict[int, int]
    level: dict[int, int]
    d: int
    r: int

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.level)


class ExtractionOutcome(Record):
    variant: str  # "crystal" | "clique-family" | "cone-tree"
    payload: object
    trace: tuple[tuple, ...]


# -- crystallized vertices ---------------------------------------------------


def find_crystallized_vertex(
    nabla: Graph,
) -> tuple[int, tuple[int, int, frozenset[int], frozenset[int]]]:
    """A vertex of a 2-tree (n >= 4) whose neighborhood splits into an anchor
    edge plus degree-two private leaves.  The last four vertices of the
    perfect elimination order induce a diamond; the others go back in
    reverse order, each patching the certificate per the two possible
    collisions."""
    if nabla.n < 4:
        raise InvalidInput("need at least 4 vertices")
    # a 2-tree is a 2-forest with 2n - 3 edges
    order = k_forest_order(nabla, 2)
    if order is None or nabla.m != 2 * nabla.n - 3:
        raise InvalidInput("input is not a 2-tree")
    # induced_subgraph keeps the labels in order, so the diamond's least
    # certificate maps back unchanged
    base = sorted(order[-4:])
    diamond, _ = induced_subgraph(nabla, base)
    dz = next(u for u in range(4) if diamond.degree(u) == 3)
    _, (d1, d2, ds1, ds2) = is_crystallized(diamond, dz)
    z, z1, z2 = base[dz], base[d1], base[d2]
    s1, s2 = (frozenset(base[x] for x in s) for s in (ds1, ds2))
    active = mask_of(base)
    for v in reversed(order[:-4]):
        nv = nabla.adj[v] & active
        active |= 1 << v
        side_mask = mask_of(s1 | s2)
        if not (nv & ((1 << z) | side_mask)):
            continue
        p, q = bits(nv)
        if nv & side_mask:
            # v leans on a private leaf x; x takes over as the crystallized
            # vertex with anchors (x's old anchor, z) and v its single leaf
            x = p if (side_mask >> p) & 1 else q
            other = q if x == p else p
            xanchor = z1 if x in s1 else z2
            assert other in (xanchor, z), "peeled vertex broke the certificate shape"
            leaf = frozenset({v})
            s1, s2 = (leaf, frozenset()) if other == xanchor else (frozenset(), leaf)
            z, z1, z2 = x, xanchor, z
            continue
        # v leans on the pair {anchor, z}: it joins that anchor's side
        assert (nv >> z) & 1, "peeled vertex broke the certificate shape"
        other = p if q == z else q
        if other == z1:
            s1 = s1 | {v}
        else:
            assert other == z2, "peeled vertex broke the certificate shape"
            s2 = s2 | {v}
    assert crystallized_sides(nabla, z, z1, z2) == (s1, s2), "patched certificate failed"
    return z, (z1, z2, s1, s2)


# -- crystal clearing ----------------------------------------------------------


def clear_crystal(G: Graph, c: Crystal, f: int, g: int):
    """Shrink a big noisy crystal to a clear (f,g)-crystal by two rounds of
    anticomplete-family selection: pair the two sides of every apex and pick
    2g anticomplete pairs, then pick f apexes whose side groups are pairwise
    anticomplete.  Selections that run dry report the step by name."""
    bad = validate_crystal(G, c)
    if bad is not None:
        raise InvalidInput(f"input crystal invalid: {bad.clause}: {bad.detail}")
    if f < 1 or g < 1:
        raise InvalidInput("need f >= 1 and g >= 1")
    if c.f < f:
        raise InvalidInput(f"input has {c.f} apexes, target needs at least {f}")
    trimmed_sides: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    for z in c.S:
        side1 = sorted(c.sides[z][0])
        side2 = sorted(c.sides[z][1])
        pairs = [(a, b) for a, b in zip(side1, side2)]
        chosen = anticomplete_family(G, [list(p) for p in pairs], 2 * g)
        if chosen is None:
            return HypothesisViolation(
                "side-pairing",
                f"apex {z}: fewer than {2 * g} pairwise anticomplete side pairs",
                needed=2 * g,
                available=len(pairs),
            )
        s1 = frozenset(pairs[i][0] for i in chosen[:g])
        s2 = frozenset(pairs[i][1] for i in chosen[g:])
        trimmed_sides[z] = (s1, s2)
    groups = [sorted(trimmed_sides[z][0] | trimmed_sides[z][1] | {z}) for z in c.S]
    chosen = anticomplete_family(G, groups, f)
    if chosen is None:
        return HypothesisViolation(
            "group-selection",
            f"fewer than {f} pairwise anticomplete apex groups",
            needed=f,
            available=len(groups),
        )
    s_sel = tuple(c.S[i] for i in chosen)
    out = Crystal(c.z1, c.z2, s_sel, {z: trimmed_sides[z] for z in s_sel})
    assert validate_crystal(G, out) is None, "cleared crystal failed re-validation"
    assert is_clear_crystal(G, out), "cleared crystal is not clear"
    return out


# -- layered structure to crystal or clique family ---------------------------------


def phantom_to_crystal(G: Graph, p: Phantom, f: int, g: int) -> ExtractionOutcome:
    """Recursive descent on an edge-based phantom with per-edge size f+g:
    either an (f,g)-crystal inside the top layer, or g disjoint depth-sized
    cliques complete to the base edge."""
    if f < 1 or g < 1:
        raise InvalidInput("need f >= 1 and g >= 1")
    bad = validate_phantom(G, p)
    if bad is not None:
        raise InvalidInput(f"invalid phantom: {bad.clause}: {bad.detail}")
    if len(p.layers[0]) != 2:
        raise InvalidInput("base layer must be a 2-clique")
    if p.d != f + g:
        raise InvalidInput(f"per-edge size {p.d} must equal f+g = {f + g}")
    z1, z2 = sorted(p.layers[0])
    if not G.has_edge(z1, z2):
        raise InvalidInput("base layer is not an edge")
    return _ptc_rec(G, p, f, g)


def _ptc_rec(G: Graph, p: Phantom, f: int, g: int) -> ExtractionOutcome:
    z1, z2 = sorted(p.layers[0])
    r = p.r
    if r == 0:
        return ExtractionOutcome(
            "clique-family", tuple(frozenset() for _ in range(g)), (("base", 0),)
        )
    fan = sorted(p.gamma_at(1)[ekey(z1, z2)])
    cliques: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}
    trace: list[tuple] = [("fan", tuple(fan))]
    for z in fan:
        for j, kept in ((1, z2), (2, z1)):
            subp = sub_phantom(G, p, {kept, z}, 1, r - 1)
            out = _ptc_rec(G, subp, f, g)
            trace.append(("recurse", j, z, out.variant))
            if out.variant == "crystal":
                return ExtractionOutcome("crystal", out.payload, tuple(trace) + out.trace)
            cliques[(j, z)] = out.payload
    anchor = {1: z1, 2: z2}
    good, bad = [], []
    for x in fan:
        is_good = True
        why = None
        for j in (1, 2):
            for k in range(g):
                kq = cliques[(j, x)][k]
                if all(G.has_edge(anchor[j], u) for u in kq):
                    is_good = False
                    why = (j, k)
                    break
            if not is_good:
                break
        if is_good:
            good.append(x)
        else:
            bad.append((x, why))
    if len(good) >= f:
        xs = good[:f]
        sides = {}
        for x in xs:
            s1 = frozenset(
                min(u for u in cliques[(2, x)][k] if not G.has_edge(z2, u)) for k in range(g)
            )
            s2 = frozenset(
                min(u for u in cliques[(1, x)][k] if not G.has_edge(z1, u)) for k in range(g)
            )
            sides[x] = (s1, s2)
        crystal = Crystal(z1, z2, tuple(xs), sides)
        assert validate_crystal(G, crystal) is None, "extracted crystal failed validation"
        trace.append(("crystal-branch", tuple(xs)))
        return ExtractionOutcome("crystal", crystal, tuple(trace))
    assert len(bad) >= g, "pigeonhole failure: proof case split is not exhaustive"
    fam = []
    picked = []
    for x, (j, k) in bad[:g]:
        fam.append(cliques[(j, x)][k] | {x})
        picked.append((x, j, k))
    fam_t = tuple(fam)
    base = mask_of((z1, z2))
    for kq in fam_t:
        assert len(kq) == r and is_clique(G, kq), "clique family member malformed"
        assert all((G.adj[v] & base) == base for v in kq), "family not complete to the base"
    taken = 0
    for kq in fam_t:
        km = mask_of(kq)
        assert not (km & taken), "clique family overlaps"
        taken |= km
    trace.append(("clique-branch", tuple(picked)))
    return ExtractionOutcome("clique-family", fam_t, tuple(trace))


# -- layered structure to crystal or regular tree ------------------------------------


def phantom_to_cone_tree(
    G: Graph,
    Z,
    z1: int,
    z2: int,
    z: int,
    p: Phantom,
    d: int,
    g: int,
    h: int,
    t: int,
):
    """Recursive descent on a triangle-based phantom inside a small context
    set Z: either a (z1,z2,1,g)-crystal anticomplete to Z minus the triangle,
    or a regular tree rooted at z with both anchors complete to it.

    A first-layer set with at least 2**h * t members adjacent into Z minus
    the triangle contradicts the host being (K_{2,2}, K_t)-free; that
    configuration is mined for its witness and returned as a diagnostic."""
    zmask = check_vertex_set(G, Z)
    tri = check_vertex_set(G, (z1, z2, z))
    bad = validate_phantom(G, p)
    if bad is not None:
        raise InvalidInput(f"invalid phantom: {bad.clause}: {bad.detail}")
    if len({z1, z2, z}) != 3 or not is_clique(G, (z1, z2, z)):
        raise InvalidInput("z1, z2, z must form a triangle")
    if tri & ~zmask:
        raise InvalidInput("the triangle must lie inside Z")
    if (G.adj[z] & zmask) != mask_of((z1, z2)):
        raise InvalidInput("z must see exactly z1 and z2 inside Z")
    if zmask.bit_count() > h:
        raise InvalidInput(f"|Z| = {zmask.bit_count()} exceeds h = {h}")
    if p.layers[0] != frozenset((z1, z2, z)):
        raise InvalidInput("phantom base must be the triangle")
    if mask_of(p.layers[-1]) & zmask != tri:
        raise InvalidInput("top layer must meet Z exactly in the triangle")
    if d < 1 or g < 1 or t < 1:
        raise InvalidInput("need d, g, t >= 1")
    return _cone_rec(G, zmask, z1, z2, z, p, d, g, h, t)


def _cone_rec(G: Graph, zmask: int, z1: int, z2: int, z: int, p: Phantom, d, g, h, t):
    r = p.r
    if r == 0:
        return ExtractionOutcome("cone-tree", ConeTree(z, {}, {z: 0}, d, 0), (("base", z),))
    zrest = zmask & ~mask_of((z1, z2, z))
    gam = p.gamma_at(1)
    fans = {1: sorted(gam[ekey(z1, z)]), 2: sorted(gam[ekey(z2, z)])}
    trace: list[tuple] = []
    for i in (1, 2):
        crowded = [w for w in fans[i] if G.adj[w] & zrest]
        trace.append(("crowding", i, len(crowded)))
        # at least 2**h * t crowded, without building 2**h for a large h
        if len(crowded) >> h >= t:
            return _mine_obstruction(G, crowded, zrest, z, t)
    # L_1 comes from the z2-side fan, L_2 from the z1-side fan
    pools = {
        1: [w for w in fans[2] if not G.adj[w] & zrest],
        2: [w for w in fans[1] if not G.adj[w] & zrest],
    }
    for i in (1, 2):
        if len(pools[i]) < d + g:
            return HypothesisViolation(
                "anticomplete-selection",
                f"fan {i}: not enough vertices clear of the context set",
                needed=d + g,
                available=len(pools[i]),
            )
    L = {i: pools[i][: d + g] for i in (1, 2)}
    anchor = {1: z1, 2: z2}
    quiet = {i: [w for w in L[i] if not G.has_edge(anchor[i], w)] for i in (1, 2)}
    if len(quiet[1]) >= g and len(quiet[2]) >= g:
        m1 = frozenset(quiet[1][:g])  # adjacent to z2 and z, clear of z1
        m2 = frozenset(quiet[2][:g])  # adjacent to z1 and z, clear of z2
        crystal = Crystal(z1, z2, (z,), {z: (m2, m1)})
        assert validate_crystal(G, crystal) is None, "branch crystal failed validation"
        assert is_anticomplete_to(G, crystal.vertex_set(), zrest), (
            "branch crystal touches the context set"
        )
        trace.append(("crystal-branch", tuple(sorted(m1 | m2))))
        return ExtractionOutcome("crystal", crystal, tuple(trace))
    j = 1 if len(quiet[1]) < g else 2
    loud = [w for w in L[j] if G.has_edge(anchor[j], w)]
    assert len(loud) >= d, "pigeonhole failure on the fan split"
    kids = loud[:d]
    trace.append(("graft-branch", j, tuple(kids)))
    parent: dict[int, int] = {}
    level: dict[int, int] = {z: 0}
    for child in kids:
        sub_zmask = (zmask & ~(1 << z)) | (1 << child)
        subp = sub_phantom(G, p, {z1, z2, child}, 1, r - 1)
        out = _cone_rec(G, sub_zmask, z1, z2, child, subp, d, g, h, t)
        if isinstance(out, (HypothesisViolation, ClassObstruction)):
            return out
        if out.variant == "crystal":
            return ExtractionOutcome("crystal", out.payload, tuple(trace) + out.trace)
        sub_tree: ConeTree = out.payload
        overlap = sub_tree.vertex_set() & set(level)
        assert not overlap, "grafted subtrees collide: layered sets were not disjoint"
        parent[child] = z
        for v, lv in sub_tree.level.items():
            level[v] = lv + 1
        for v, u in sub_tree.parent.items():
            parent[v] = u
    tree = ConeTree(z, parent, level, d, r)
    return ExtractionOutcome("cone-tree", tree, tuple(trace))


def _mine_obstruction(G: Graph, crowded: list[int], zrest: int, z: int, t: int):
    """The crowding bound failed; extract the biclique or clique it implies.

    With the bound at 2**h * t and at most 2**(h-3) context profiles, the
    largest profile class always holds t members; a non-adjacent pair in it
    yields an induced four-cycle through z, otherwise the class is a clique.
    """
    profiles: dict[int, list[int]] = {}
    for w in crowded:
        profiles.setdefault(G.adj[w] & zrest, []).append(w)
    prof, group = max(profiles.items(), key=lambda kv: len(kv[1]))
    assert len(group) >= t, "pigeonhole failure while mining the crowded fan"
    group = group[:t]
    pair = next(stable_sets(G.adj, mask_of(group), 2), 0)
    if pair:
        y = min(bits(prof))
        return ClassObstruction("biclique", tuple(sorted((*bits(pair), y, z))))
    return ClassObstruction("clique", tuple(sorted(group)))


# -- growing a 2-tree ------------------------------------------------------------------


def grow_2_tree(
    G: Graph,
    nabla: Graph,
    embedding: dict[int, int],
    p: Phantom,
    d: int,
    g: int,
    h: int,
    t: int,
):
    """One induction round: extend an embedding of the 2-tree minus the
    private leaves of a crystallized vertex to an embedding of the whole
    2-tree, by replacing the crystallized image with a fresh crystal apex and
    grafting leaf images from its sides.

    Returns the extended embedding dict, or the cone-tree outcome when the
    other branch fires (the caller decides what to do with it), or a
    violation report."""
    z, (cz1, cz2, s1, s2) = find_crystallized_vertex(nabla)
    core = sorted(set(range(nabla.n)) - (s1 | s2))
    if sorted(embedding) != core:
        raise InvalidInput("embedding must cover exactly the 2-tree minus the private leaves")
    core_edges = edges_inside(nabla.adj, mask_of(core))
    if not induces(G, embedding.values(), ((embedding[u], embedding[v]) for u, v in core_edges)):
        raise InvalidInput("embedding is not an induced embedding of the core")
    phi_z, phi_z1, phi_z2 = embedding[z], embedding[cz1], embedding[cz2]
    zset = frozenset(embedding.values())
    out = phantom_to_cone_tree(G, zset, phi_z1, phi_z2, phi_z, p, d, g, h, t)
    if isinstance(out, (HypothesisViolation, ClassObstruction)):
        return out
    if out.variant == "cone-tree":
        return out
    crystal: Crystal = out.payload
    apex = crystal.S[0]
    side1, side2 = crystal.sides[apex]
    picks = _stable_graft(G, mask_of(side1), mask_of(side2), len(s1), len(s2))
    if picks is None:
        return HypothesisViolation(
            "graft-stability",
            "no stable anticomplete leaf selection inside the crystal sides",
            needed=len(s1) + len(s2),
            available=len(side1) + len(side2),
        )
    a1, a2 = picks
    grown = {u: embedding[u] for u in core if u != z}
    grown[z] = apex
    grown.update(zip(sorted(s1), a1))
    grown.update(zip(sorted(s2), a2))
    assert induces(G, grown.values(), ((grown[u], grown[v]) for u, v in nabla.edges())), (
        "grown embedding is not induced"
    )
    return grown


def _stable_graft(G: Graph, side1: int, side2: int, need1: int, need2: int):
    """The first stable need1-set a1 of side1 that leaves a stable need2-set
    a2 in side2 outside a1 and its neighbors, with that first a2."""
    for a1 in stable_sets(G.adj, side1, need1):
        a2 = next(stable_sets(G.adj, side2 & ~a1 & ~G.neighborhood(a1), need2), None)
        if a2 is not None:
            return list(bits(a1)), list(bits(a2))
    return None


# -- independent exhaustive oracle -----------------------------------------------------


def brute_force_crystal(
    G: Graph, f: int, g: int, guard: int = 24
) -> Crystal | None:
    """Exhaustive search over anchor edges, apex sets and side assignments
    for any valid (f,g)-crystal; independent of the recursive extractors."""
    if f < 1 or g < 1:
        raise InvalidInput("need f >= 1 and g >= 1")
    check_scale(G, guard, "brute_force_crystal")
    for z1, z2 in G.edges():
        others = [v for v in range(G.n) if v not in (z1, z2)]
        cand1 = [x for x in others if G.has_edge(x, z1) and not G.has_edge(x, z2)]
        cand2 = [x for x in others if G.has_edge(x, z2) and not G.has_edge(x, z1)]
        for apexes in itertools.combinations(others, f):
            am = mask_of(apexes)
            per1 = []
            per2 = []
            feasible = True
            for zx in apexes:
                c1 = [x for x in cand1 if G.has_edge(x, zx) and not (am >> x) & 1]
                c2 = [x for x in cand2 if G.has_edge(x, zx) and not (am >> x) & 1]
                if len(c1) < g or len(c2) < g:
                    feasible = False
                    break
                per1.append(c1)
                per2.append(c2)
            if not feasible:
                continue
            picked = _assign_sides(per1 + per2, g, 0)
            if picked is not None:
                sides = {}
                for i, zx in enumerate(apexes):
                    sides[zx] = (frozenset(picked[i]), frozenset(picked[f + i]))
                c = Crystal(z1, z2, tuple(apexes), sides)
                if validate_crystal(G, c) is None:
                    return c
    return None


def _assign_sides(pools: list[list[int]], g: int, used: int):
    if not pools:
        return []
    first = [x for x in pools[0] if not (used >> x) & 1]
    for combo in itertools.combinations(first, g):
        rest = _assign_sides(pools[1:], g, used | mask_of(combo))
        if rest is not None:
            return [list(combo)] + rest
    return None
