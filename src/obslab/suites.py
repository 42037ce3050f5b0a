"""Named verification suites: seeded corpora plus the property checks they
feed.  The CLI verify command and the acceptance tests drive the same
functions, so a green acceptance run and a green CLI report mean the same
thing.

Each suite returns a list of per-instance record dicts (deterministic given
the knobs and seed) followed by a tally; timing never enters the records.
The bounded conjecture scan behind `scan-conjecture` lives here too.
"""

from __future__ import annotations

from . import detectors as det
from . import extractors as ext
from . import generators as gen
from . import structures as st
from . import treewidth as tw
from .errors import InvalidInput, ScaleLimit
from .graph_core import Digraph, Graph, bits, is_clique, is_complete_to, mask_of
from .rng import SplitMix


def _record(index: int, name: str, ok: bool, **extra) -> dict:
    rec = {"instance": index, "name": name, "ok": bool(ok)}
    rec.update(extra)
    return rec


# -- corpora -------------------------------------------------------------------


def seeded_sparse_graphs(count: int, seed: int):
    """Seeded sparse graphs on 4 to 10 vertices with at least one edge and
    n + m <= 16, so that one full subdivision round (n + m vertices) stays
    within the exact-treewidth comfort zone."""
    rng = SplitMix(seed)
    out = []
    while len(out) < count:
        n = 4 + rng.below(7)
        den = 3 + rng.below(4)
        g = gen.random_graph(n, rng.next_u64(), 1, den)
        if g.m == 0 or g.n + g.m > 16:
            continue
        out.append(g)
    return out


def seeded_members_with_edge(count: int, seed: int, n_hi: int = 10):
    """Members of the four-structure-free class together with an edge whose
    common neighborhood is a stable set of degree-<=3 vertices."""
    if n_hi < 4:
        raise InvalidInput(f"members have 4 to n_hi vertices, so n_hi must be at least 4, got {n_hi}")
    rng = SplitMix(seed)
    out = []
    while len(out) < count:
        n = 4 + rng.below(n_hi - 3)
        g = gen.random_graph(n, rng.next_u64(), 1, 3 + rng.below(3))
        if g.m == 0:
            continue
        if det.membership_E_t(g, None) is not None:
            continue
        pick = None
        for u, v in g.edges():
            common = g.adj[u] & g.adj[v]
            if all(g.degree(w) <= 3 for w in bits(common)) and not (g.neighborhood(common) & common):
                pick = (u, v)
                break
        if pick is None:
            continue
        out.append((g, pick))
    return out


def seeded_even_hole_triangle_free(count: int, seed: int, n_hi: int = 10):
    rng = SplitMix(seed)
    out = []
    while len(out) < count:
        n = 4 + rng.below(n_hi - 3)
        g = gen.random_graph(n, rng.next_u64(), 1, 4 + rng.below(3))
        if det.find_even_hole(g) is not None:
            continue
        if det.find_clique(g, 3) is not None:
            continue
        out.append(g)
    return out


# -- suites -------------------------------------------------------------------------


def suite_obstructions(t_max: int = 3, seed: int = 0, samples: int = 5) -> list[dict]:
    """Treewidth of the basic obstruction families plus the even-hole /
    theta / prism content of the non-complete ones."""
    records = []
    i = 0
    for t in range(1, min(t_max, 12) + 1):
        w, td = tw.treewidth_exact(gen.complete(t + 1))
        records.append(_record(i, f"tw(K_{t + 1})", w == t, width=w))
        i += 1
    for t in range(1, min(t_max, 7) + 1):
        g = gen.complete_bipartite(t, t)
        w, td = tw.treewidth_exact(g)
        records.append(_record(i, f"tw(K_{t},{t})", w == t, width=w))
        i += 1
    for t in (2, 3):
        if t > t_max:
            continue
        g = gen.wall(t)
        w, td = tw.treewidth_exact(g)
        ok = w == t and tw.verify_decomposition(g, td) is None
        records.append(_record(i, f"tw(wall({t}))", ok, width=w))
        i += 1
    # the suite builds these instances itself, so each is guarded by its own size
    rng = SplitMix(seed)
    for t in (3, 4):
        if t > t_max + 1:
            continue
        for _ in range(samples):
            s = rng.next_u64()
            kinds = ("biclique", "wall", "line_of_wall")
            obs = {kind: gen.basic_obstruction(t, kind, seed=s) for kind in kinds}
            for kind, g in obs.items():
                w = det.find_even_hole(g, guard=g.n)
                ok = w is not None and det.validate_witness(g, w)
                records.append(_record(i, f"even-hole {kind} t={t}", ok, n=g.n))
                i += 1
            for name, finder, g in (
                ("theta wall", det.find_theta, obs["wall"]),
                ("theta biclique", det.find_theta, obs["biclique"]),
                ("prism line-of-wall", det.find_prism, obs["line_of_wall"]),
            ):
                w = finder(g, guard=g.n)
                ok = w is not None and det.validate_witness(g, w)
                records.append(_record(i, f"{name} t={t}", ok))
                i += 1
    return records


def suite_class_containment(n_max: int = 7) -> list[dict]:
    """Exhaustively over isomorphism classes: no even hole implies no induced
    K_{2,2}, theta, prism or even wheel."""
    if n_max > gen.ENUMERATION_LIMIT:
        raise ScaleLimit(
            f"suite_class_containment: n_max {n_max} exceeds the enumeration limit of {gen.ENUMERATION_LIMIT}"
        )
    records = []
    i = 0
    for n in range(1, n_max + 1):
        checked = 0
        bad = 0
        for g in gen.enumerate_graphs(n):
            if det.find_even_hole(g) is not None:
                continue
            checked += 1
            if det.membership_E_t(g, None) is not None:
                bad += 1
        records.append(_record(i, f"containment n={n}", bad == 0, checked=checked))
        i += 1
    return records


def suite_contraption(samples: int = 200, n_max: int = 10, seed: int = 0) -> list[dict]:
    """Contraptions of class members along qualifying edges stay members."""
    records = []
    for i, (g, (u, v)) in enumerate(seeded_members_with_edge(samples, seed, n_max)):
        h, _, _ = st.contraption(g, u, v)
        ok = det.membership_E_t(h, None) is None
        records.append(_record(i, f"contraption n={g.n} edge=({u},{v})", ok))
    return records


def suite_crystallized(samples: int = 200, seed: int = 0) -> list[dict]:
    """Crystallized-vertex extraction on seeded 2-trees with 4 to 12 vertices,
    cross-checked by the brute-force scan."""
    rng = SplitMix(seed)
    records = []
    for i in range(samples):
        n = 4 + rng.below(9)
        g = gen.k_tree_random(2, n, rng.next_u64())
        z, (z1, z2, s1, s2) = ext.find_crystallized_vertex(g)
        brute_ok, _ = st.is_crystallized(g, z)
        cert_ok = st.crystallized_sides(g, z, z1, z2) == (s1, s2)
        records.append(_record(i, f"crystallized n={n}", brute_ok and cert_ok, vertex=z))
    return records


def suite_extractors(samples: int = 100, seed: int = 0) -> list[dict]:
    """Planted phantoms across (f, g), depth and density; every outcome
    payload re-validates, and small crystal outcomes are confirmed by the
    independent exhaustive search."""
    rng = SplitMix(seed)
    records = []
    for i in range(samples):
        f = 1 + rng.below(2)
        g_par = 1 + rng.below(2)
        r = rng.below(4)
        density = "minimal" if rng.below(2) == 0 else "coned"
        use_triangle = rng.below(2) == 1
        s = rng.next_u64()
        if use_triangle:
            host, ph = gen.plant_phantom(gen.complete(3), f + g_par, r, seed=s, density=density)
            out = ext.phantom_to_cone_tree(
                host, [0, 1, 2], 0, 1, 2, ph, d=f, g=g_par, h=3, t=4
            )
            name = f"cone-tree f={f} g={g_par} r={r} {density}"
            ok, extra = _check_cone_outcome(host, ph, out, f, g_par)
        else:
            host, ph = gen.plant_phantom(gen.complete(2), f + g_par, r, seed=s, density=density)
            out = ext.phantom_to_crystal(host, ph, f, g_par)
            name = f"crystal f={f} g={g_par} r={r} {density}"
            ok, extra = _check_crystal_outcome(host, ph, out, f, g_par, r)
        records.append(_record(i, name, ok, n=host.n, **extra))
    return records


def _check_crystal_outcome(host, ph, out, f, g_par, r):
    if out.variant == "crystal":
        c = out.payload
        if st.validate_crystal(host, c) is not None:
            return False, {"variant": "crystal"}
        if host.n <= 24:
            found = ext.brute_force_crystal(host, f, g_par)
            return found is not None, {"variant": "crystal", "brute": True}
        return True, {"variant": "crystal"}
    if out.variant == "clique-family":
        fam = out.payload
        base = sorted(ph.layers[0])
        ok = len(fam) == g_par
        for kq in fam:
            ok = ok and len(kq) == r and is_clique(host, kq) and is_complete_to(host, kq, base)
        return ok, {"variant": "clique-family"}
    return False, {"variant": "violation"}


def _check_cone_outcome(host, ph, out, f, g_par):
    if isinstance(out, ext.HypothesisViolation):
        # re-check the named shortfall by direct counting
        genuine = out.available < out.needed
        return genuine, {"variant": "violation", "step": out.step}
    if isinstance(out, ext.ClassObstruction):
        return False, {"variant": "class-obstruction"}
    if out.variant == "crystal":
        c = out.payload
        ok = st.validate_crystal(host, c) is None and c.f == 1 and c.g == g_par
        return ok, {"variant": "crystal"}
    if out.variant == "cone-tree":
        tree = out.payload
        ok = _cone_tree_shape_ok(host, ph, tree, f)
        return ok, {"variant": "cone-tree"}
    return False, {"variant": "?"}


def _cone_tree_shape_ok(host: Graph, ph: st.Phantom, tree: ext.ConeTree, d: int) -> bool:
    z1, z2, z = sorted(ph.layers[0])
    root = tree.root
    if tree.level.get(root) != 0:
        return False
    kids: dict[int, list[int]] = {}
    for v, u in tree.parent.items():
        kids.setdefault(u, []).append(v)
    if not all(is_complete_to(host, vs, (u,)) for u, vs in kids.items()):
        return False
    for v, lv in tree.level.items():
        expect = d if lv < tree.r else 0
        if len(kids.get(v, [])) != expect:
            return False
    # every anchor other than the root is joined to every other tree vertex
    tree_mask = mask_of(tree.level)
    anchors = [a for a in (z1, z2, z) if a != root]
    if not all(is_complete_to(host, (a,), tree_mask & ~(1 << a)) for a in anchors):
        return False
    for v, lv in tree.level.items():
        if v == root:
            continue
        u = tree.parent[v]
        level_map = ph.gamma_at(lv)
        hits = []
        for a in anchors:
            key = st.ekey(u, a)
            if key in level_map and v in level_map[key]:
                hits.append(a)
        if not hits:
            return False
    return True


def suite_ramsey(c: int = 3, s: int = 2, seed: int = 0, samples: int = 300) -> list[dict]:
    """Never-"neither" checks for the two Ramsey-type searchers: exhaustive
    over all isomorphism classes where the threshold is enumerable, seeded
    corpora with extremal members at the stated thresholds beyond that."""
    # c**s when that is within the guard and past the guard otherwise: for
    # c >= 2 the power c**guard.bit_length() is already past it, so a large s
    # is never raised in full
    thresh = c ** min(s, det.DEFAULT_GUARD.bit_length())
    if thresh > det.DEFAULT_GUARD:
        raise ScaleLimit(f"suite_ramsey: threshold {c}**{s} exceeds the guard of {det.DEFAULT_GUARD}")
    records = []
    i = 0
    if thresh <= 7:
        for n in range(thresh, 8):
            bad = 0
            for g in gen.enumerate_graphs(n):
                tag, w = det.find_clique_or_stable(g, c, s)
                if tag == "neither":
                    bad += 1
                elif w is not None and not det.validate_witness(g, w):
                    bad += 1
            records.append(_record(i, f"clique-or-stable exhaustive n={n}", bad == 0))
            i += 1
    else:
        rng = SplitMix(seed)
        extremes = [gen.complete(thresh), Graph(thresh, tuple([0] * thresh))]
        corpus = extremes + [
            gen.random_graph(thresh, rng.next_u64(), 1 + rng.below(9), 10)
            for _ in range(samples)
        ]
        bad = 0
        for g in corpus:
            tag, w = det.find_clique_or_stable(g, c, s)
            if tag == "neither" or (w is not None and not det.validate_witness(g, w)):
                bad += 1
        records.append(
            _record(i, f"clique-or-stable sampled n={thresh} c={c} s={s}", bad == 0, count=len(corpus))
        )
        i += 1
    # tournament-or-stable at its own threshold
    tc, ts = 2, 2
    n_t = tc ** (tc**ts)
    rng = SplitMix(seed + 1)
    digraphs = [gen.random_digraph(n_t, rng.next_u64(), 1 + rng.below(9), 10) for _ in range(samples)]
    digraphs.append(Digraph.from_arcs(n_t, []))
    digraphs.append(
        Digraph.from_arcs(n_t, [(a, b) for a in range(n_t) for b in range(n_t) if a != b])
    )
    bad = 0
    for dg in digraphs:
        tag, _ = det.acyclic_tournament_or_stable(dg, tc, ts)
        if tag == "neither":
            bad += 1
    records.append(
        _record(i, f"tournament-or-stable n={n_t} c={tc} s={ts}", bad == 0, count=len(digraphs))
    )
    return records


def scan_conjecture(h: Graph, t: int, n_max: int, samples: int = 50, seed: int = 0):
    """Bounded, never conclusive counterexample scan: exact treewidth of the
    graphs on at most n_max vertices with no even hole, no K_t and no induced
    h, over every class up to 7 vertices and `samples` seeded random graphs
    of each larger size.

    Returns (checked, best, records): how many graphs passed the filters, the
    largest width among them (-1 if none), and one record per graph that
    raised the running maximum.
    """
    if n_max > tw.DEFAULT_EXACT_GUARD:
        raise ScaleLimit(
            f"scan_conjecture: n_max {n_max} exceeds the exact-treewidth guard of {tw.DEFAULT_EXACT_GUARD}"
        )
    rng = SplitMix(seed)
    best = -1
    checked = 0
    records = []
    for n in range(1, n_max + 1):
        if n <= 7:
            pool = gen.enumerate_graphs(n)
        else:
            pool = [gen.random_graph(n, rng.next_u64(), 1 + rng.below(9), 10) for _ in range(samples)]
        for g in pool:
            if det.find_even_hole(g) is not None:
                continue
            if det.find_clique(g, t) is not None:
                continue
            if h.n <= g.n and det.contains_induced(g, h) is not None:
                continue
            checked += 1
            width, _ = tw.treewidth_exact(g)
            if width > best:
                best = width
                records.append({"n": n, "treewidth": width, "edges": [list(e) for e in g.edges()]})
    return checked, best, records


SUITES = {
    "obstructions": suite_obstructions,
    "class-containment": suite_class_containment,
    "contraption": suite_contraption,
    "crystallized": suite_crystallized,
    "extractors": suite_extractors,
    "ramsey": suite_ramsey,
}
