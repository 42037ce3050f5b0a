"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest -s tests/test_acceptance.py` to see every line; the
suite is deterministic end to end."""

import time

from obslab import detectors as det
from obslab import extractors as ext
from obslab import generators as gen
from obslab import structures as st
from obslab import treewidth as tw
from obslab.graph_core import subdivide_all
from obslab.rng import SplitMix
from obslab.suites import (
    seeded_even_hole_triangle_free,
    seeded_sparse_graphs,
    suite_class_containment,
    suite_contraption,
    suite_crystallized,
    suite_extractors,
    suite_ramsey,
)

ACCEPT_SEED = 20260808


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_obstruction_treewidth():
    t0 = time.perf_counter()
    per_complete = []
    for t in range(1, 13):
        tic = time.perf_counter()
        w, _ = tw.treewidth_exact(gen.complete(t + 1))
        per_complete.append(time.perf_counter() - tic)
        assert w == t, f"tw(K_{t + 1}) = {w}"
        assert per_complete[-1] < 1.0
    tic = time.perf_counter()
    for t in range(1, 8):
        w, _ = tw.treewidth_exact(gen.complete_bipartite(t, t))
        assert w == t, f"tw(K_{t},{t}) = {w}"
    biclique_time = time.perf_counter() - tic
    assert biclique_time < 300
    tic = time.perf_counter()
    for t in (2, 3):
        g = gen.wall(t)
        w, td = tw.treewidth_exact(g)
        assert w == t, f"tw(wall({t})) = {w}"
        assert tw.verify_decomposition(g, td) is None
    wall_time = time.perf_counter() - tic
    assert wall_time < 600
    report(
        1,
        True,
        f"complete t<=12, biclique t<=7 ({biclique_time:.1f}s), wall t in 2..3 "
        f"({wall_time:.1f}s), total {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_02_subdivision_invariance():
    graphs = seeded_sparse_graphs(50, ACCEPT_SEED)
    exceptions = 0
    for g in graphs:
        w0, _ = tw.treewidth_exact(g)
        assert w0 >= 1
        w1, _ = tw.treewidth_exact(subdivide_all(g))
        if w0 != w1:
            exceptions += 1
    report(2, exceptions == 0, f"50 seeded graphs n<=10, {exceptions} exceptions")


def test_criterion_03_class_containment_exhaustive():
    t0 = time.perf_counter()
    records = suite_class_containment(7)
    elapsed = time.perf_counter() - t0
    bad = [r for r in records if not r["ok"]]
    checked = sum(r["checked"] for r in records)
    ok = not bad and elapsed < 900
    report(
        3,
        ok,
        f"all graphs on <=7 vertices up to isomorphism, {checked} even-hole-free "
        f"members checked in {elapsed:.0f}s",
    )


def test_criterion_04_even_holes_in_obstructions():
    rng = SplitMix(ACCEPT_SEED + 4)
    failures = 0
    runs = 0
    for _ in range(20):
        s = rng.next_u64()
        for t in (3, 4):
            for kind in ("biclique", "wall", "line_of_wall"):
                g = gen.basic_obstruction(t, kind, seed=s)
                w = det.find_even_hole(g, guard=128)
                runs += 1
                if w is None or not det.validate_witness(g, w):
                    failures += 1
            g = gen.basic_obstruction(t, "biclique", seed=s)
            if det.find_theta(g, guard=128) is None:
                failures += 1
            g = gen.basic_obstruction(t, "wall", seed=s)
            if det.find_theta(g, guard=128) is None:
                failures += 1
            g = gen.basic_obstruction(t, "line_of_wall", seed=s)
            if det.find_prism(g, guard=128) is None:
                failures += 1
            runs += 3
    report(4, failures == 0, f"{runs} obstruction detections over 20 seeds, {failures} failures")


def test_criterion_05_small_clique_bound():
    graphs = seeded_even_hole_triangle_free(500, ACCEPT_SEED + 5)
    worst = -1
    over = 0
    for g in graphs:
        w, _ = tw.treewidth_exact(g)
        worst = max(worst, w)
        if w > 5:
            over += 1
    report(5, over == 0, f"500 even-hole- and triangle-free graphs n<=10, max treewidth {worst}")


def test_criterion_06_crystallized_vertices():
    records = suite_crystallized(200, seed=ACCEPT_SEED + 6)
    bad = [r for r in records if not r["ok"]]
    report(6, not bad, f"200 seeded 2-trees, {len(bad)} disagreements with the brute scan")


def test_criterion_07_extractor_soundness():
    records = suite_extractors(100, seed=ACCEPT_SEED + 7)
    bad = [r for r in records if not r["ok"]]
    variants = {}
    for r in records:
        variants[r.get("variant", "?")] = variants.get(r.get("variant", "?"), 0) + 1
    # exercise the shortfall path explicitly: undersized phantom vs larger
    # demand, with the reported shortfall re-checked by direct set counting
    host, p = gen.plant_phantom(gen.complete(3), 2, 1, seed=1)
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=2, g=1, h=3, t=4)
    shortfall_ok = (
        isinstance(out, ext.HypothesisViolation)
        and out.needed == 2 + 1
        and out.available == len(p.gamma_at(1)[(1, 2)])
        and out.available < out.needed
    )
    report(
        7,
        not bad and shortfall_ok,
        f"100 planted phantoms -> {variants}; shortfall reporting verified",
    )


def test_criterion_08_crystal_clearing():
    failures = 0
    for seed in range(100):
        f, g = 1 + seed % 2, 1 + (seed // 2) % 2
        host, c = gen.plant_crystal(
            3 * f + 2, 3 * g + 2, noise_seed=seed, noise_num=1, noise_den=24
        )
        out = ext.clear_crystal(host, c, f, g)
        if isinstance(out, ext.HypothesisViolation):
            failures += 1
            continue
        if not st.is_clear_crystal(host, out):
            failures += 1
        if not out.vertex_set() <= c.vertex_set():
            failures += 1
        for z in out.S:
            s1, s2 = out.sides[z]
            if not (s1 <= c.sides[z][0] and s2 <= c.sides[z][1]):
                failures += 1
    report(8, failures == 0, f"100 noisy planted crystals cleared, outputs subset of inputs")


def test_criterion_09_contraption_preservation():
    records = suite_contraption(200, n_max=10, seed=ACCEPT_SEED + 9)
    bad = [r for r in records if not r["ok"]]
    report(9, not bad, f"200 class members with qualifying edges, {len(bad)} exceptions")


def test_criterion_10_ramsey_primitives():
    records = suite_ramsey(c=3, s=2, seed=ACCEPT_SEED + 10, samples=400)
    bad = [r for r in records if not r["ok"]]
    # the (3,3) leg at its 27-vertex threshold
    rng = SplitMix(ACCEPT_SEED + 11)
    neither = 0
    for _ in range(100):
        g = gen.random_graph(27, rng.next_u64(), 1 + rng.below(9), 10)
        tag, _ = det.find_clique_or_stable(g, 3, 3)
        if tag == "neither":
            neither += 1
    for g in (gen.complete(27), gen.random_graph(27, 1, 0, 1)):
        tag, _ = det.find_clique_or_stable(g, 3, 3)
        if tag == "neither":
            neither += 1
    report(
        10,
        not bad and neither == 0,
        "clique-or-stable at (3,2) n=9 and (3,3) n=27, tournament-or-stable at (2,2) n=16",
    )


def test_criterion_11_k_tree_coherence():
    rng = SplitMix(ACCEPT_SEED + 12)
    failures = 0
    for _ in range(200):
        k = 1 + rng.below(3)
        n = k + rng.below(13 - k)
        g = gen.k_tree_random(k, n, rng.next_u64())
        if not (det.is_k_tree(g, k) and det.is_k_forest(g, k)):
            failures += 1
    report(11, failures == 0, f"200 random k-trees (k<=3, n<=12), {failures} incoherent")
