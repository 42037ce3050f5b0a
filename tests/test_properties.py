"""Cross-cutting property suites that tie several modules together."""

import itertools

from obslab import detectors as det
from obslab import extractors as ext
from obslab.generators import (
    complete,
    crystal_graph,
    enumerate_graphs,
    plant_crystal,
    plant_phantom,
    random_graph,
)
from obslab.graph_core import mask_of
from obslab.rng import SplitMix
from obslab.structures import crystal_realizes_graph, ekey
from obslab.treewidth import treewidth_exact

from .subset_oracles import is_cycle_subset


def _all_holes(g):
    """Every induced cycle on >= 4 vertices, by subset scan."""
    out = []
    for size in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            smask = mask_of(sub)
            order = is_cycle_subset(g, sub, smask)
            if order is not None:
                out.append((smask, order))
    return out


def test_adjacent_pair_over_hole_has_common_neighbor():
    """In theta- and even-wheel-free graphs, two adjacent vertices outside a
    hole with three or more neighbors on it each must share one; a violation
    would mean one of the two detectors mislabels its structure."""
    rng = SplitMix(31)
    checked = 0
    tried = 0
    while checked < 40 and tried < 4000:
        tried += 1
        g = random_graph(8, rng.next_u64(), 1 + rng.below(3), 4)
        if det.find_theta(g) is not None or det.find_even_wheel(g) is not None:
            continue
        holes = _all_holes(g)
        if not holes:
            continue
        for smask, order in holes:
            outside = [v for v in range(g.n) if not (smask >> v) & 1]
            for z1, z2 in itertools.combinations(outside, 2):
                if not g.has_edge(z1, z2):
                    continue
                if (g.adj[z1] & smask).bit_count() < 3:
                    continue
                if (g.adj[z2] & smask).bit_count() < 3:
                    continue
                assert g.adj[z1] & g.adj[z2] & smask, (
                    f"no common hole neighbor for ({z1},{z2})"
                )
                checked += 1
    assert checked > 0


def test_subdivided_k4_treewidth():
    from obslab.graph_core import subdivide_all

    s = subdivide_all(complete(4))
    assert s.n == 10
    assert treewidth_exact(s)[0] == 3


def test_cleared_crystals_realize_crystal_graphs():
    for seed in range(0, 100, 10):
        f, g = 1 + seed % 2, 1 + (seed // 2) % 2
        host, c = plant_crystal(3 * f + 2, 3 * g + 2, noise_seed=seed, noise_num=1, noise_den=24)
        out = ext.clear_crystal(host, c, f, g)
        assert not isinstance(out, ext.HypothesisViolation)
        spec = crystal_realizes_graph(host, out)
        assert spec is not None
        assert det.contains_induced(host, crystal_graph(spec), guard=128) is not None


def test_cone_tree_level_certificates():
    host, p = plant_phantom(complete(3), 2, 2, seed=5, density="coned")
    out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    if out.variant != "cone-tree":
        host, p = plant_phantom(complete(3), 2, 1, seed=5, density="coned")
        out = ext.phantom_to_cone_tree(host, [0, 1, 2], 0, 1, 2, p, d=1, g=1, h=3, t=4)
    assert out.variant == "cone-tree"
    tree = out.payload
    anchors = (0, 1)
    for v, lv in tree.level.items():
        if v == tree.root:
            continue
        u = tree.parent[v]
        level_map = p.gamma_at(lv)
        assert any(
            ekey(u, a) in level_map and v in level_map[ekey(u, a)] for a in anchors
        ), f"vertex {v} misses its level certificate"
        assert v in p.layers[lv] and v not in p.layers[lv - 1]
    assert set(tree.level) & {0, 1, 2} == {2}


def test_even_hole_free_iso_classes_sampled_membership():
    # a light version of the exhaustive containment run, over one size
    for g in enumerate_graphs(5):
        if det.find_even_hole(g) is None:
            assert det.membership_E_t(g, None) is None


def test_cli_exit_codes_fuzzed():
    import io
    import sys

    from obslab import cli

    rng = SplitMix(77)
    junk_pool = ['{"n": 3}', "{]", "", "0 0", '{"edges": 1}', '{"n": -1, "edges": []}', "\x00\x01"]
    commands = (
        ["detect", "even-hole"],
        ["tw"],
        ["validate", "crystal"],
        ["extract", "phantom-to-crystal"],
    )
    for i in range(40):
        junk = junk_pool[rng.below(len(junk_pool))]
        for argv in commands:
            old_in, old_out = sys.stdin, sys.stdout
            sys.stdin = io.StringIO(junk)
            sys.stdout = io.StringIO()
            try:
                code = cli.main(argv)
            finally:
                sys.stdin, sys.stdout = old_in, old_out
            assert code == 1, (argv, junk)


def test_suites_are_deterministic():
    from obslab.suites import suite_crystallized, suite_extractors

    assert suite_extractors(20, seed=5) == suite_extractors(20, seed=5)
    assert suite_crystallized(20, seed=5) == suite_crystallized(20, seed=5)
