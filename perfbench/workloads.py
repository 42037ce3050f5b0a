"""The four benchmark workloads: seeded fixtures, the fixed operation list of
one pass, and the correctness check of every operation.

A workload's `setup(seed)` builds its inputs and returns the pass as a list
of `(label, op)` pairs.  Calling `op()` runs one operation and returns
`(ok, record)`: `ok` is the correctness verdict, `record` a JSON-able
summary of the output (witnesses, widths, counts) that goes into the pass
digest.  An exception from `op()` counts as a failed operation.

The program only ever receives generated graphs; seeds stay here.  Checks
use the definitions (a witness re-validates, a decomposition certifies its
width, a count matches the known sequence, a class member built by a clique
sum has no obstruction) rather than comparing timings or a stored answer.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from obslab import detectors as det
from obslab import generators as gen
from obslab import suites
from obslab import treewidth as tw
from obslab.graph_core import Graph, subdivide_all

HERE = os.path.dirname(os.path.abspath(__file__))

# graphs on n <= 7 vertices up to isomorphism (OEIS A000088)
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
# 2-trees on 9 vertices up to isomorphism (OEIS A054581)
TWO_TREES_ON_9 = 136


def _witness_record(w) -> list | None:
    if w is None:
        return None
    return [w.kind, list(w.vertices), repr(w.detail)]


# -- witness-search ----------------------------------------------------------------

# (finder, obstruction kind) for t in {3, 4}: the criterion-4 corpus of the
# acceptance gate
WITNESS_QUERIES = (
    ("find_even_hole", "biclique"),
    ("find_even_hole", "wall"),
    ("find_even_hole", "line_of_wall"),
    ("find_theta", "wall"),
    ("find_theta", "biclique"),
    ("find_prism", "line_of_wall"),
)
# Seeded subdivisions per t.  With these counts the median operation falls
# inside the group of even-hole searches on walls and line graphs, and the
# eleventh slowest (the tail rank) inside the t=3 prisms, not on the edge of
# a group.
WITNESS_SAMPLES = {3: 6, 4: 4}


def setup_witness_search(seed: int):
    rng = random.Random(seed)
    fixtures = []
    for t, samples in WITNESS_SAMPLES.items():
        for _ in range(samples):
            s = rng.getrandbits(64)
            graphs = {k: gen.basic_obstruction(t, k, seed=s) for k in ("biclique", "wall", "line_of_wall")}
            for finder, kind in WITNESS_QUERIES:
                fixtures.append((t, finder, kind, graphs[kind]))
    # an explicit guard that admits every generated instance
    guard = max(g.n for *_, g in fixtures)

    def make(finder, g):
        def op():
            w = getattr(det, finder)(g, guard=guard)
            return w is not None and det.validate_witness(g, w), _witness_record(w)

        return op

    return [(f"{finder} {kind} t={t} n={g.n}", make(finder, g)) for t, finder, kind, g in fixtures]


# -- absence-certify --------------------------------------------------------------


def glued_chain(rng: random.Random, pieces: int) -> Graph:
    """Odd holes (C5, C7 in turn) and triangles, alternating, each glued to
    what is built so far along a clique (a vertex or an edge) chosen by the
    seed.  Holes, thetas, prisms and even wheels have no clique cutset, so
    each would lie inside one piece; odd holes and triangles contain none,
    hence neither does the chain.  It has holes, so it is not chordal."""
    edges: set[tuple[int, int]] = set()
    cliques: list[tuple[int, ...]] = []
    n = 0
    for p in range(pieces):
        hole = p % 2 == 0
        size = (5 if p % 4 == 0 else 7) if hole else 3
        shared: tuple[int, ...] = ()
        if p:
            shared = cliques[rng.randrange(len(cliques))][: 1 + rng.randrange(2)]
        verts = list(shared) + list(range(n, n + size - len(shared)))
        n += size - len(shared)
        if hole:
            ring = [(verts[i], verts[(i + 1) % size]) for i in range(size)]
            edges.update((min(u, v), max(u, v)) for u, v in ring)
            cliques.extend(ring)
        else:
            edges.update((min(u, v), max(u, v)) for i, u in enumerate(verts) for v in verts[i + 1 :])
            cliques.append(tuple(verts))
    return Graph.from_edges(n, sorted(edges))


ABSENCE_FINDERS = ("find_even_hole", "find_theta", "find_prism", "find_even_wheel")
# Many small inputs rather than a few large ones: search costs vary from one
# random graph to the next, and the pass sums them.  Every input has more
# than 18 vertices, so the path-growing searches run (smaller graphs take the
# subset route, which census exercises), and every search stays far inside
# the default budget.
ABSENCE_KTREES = ((2, 20, 12), (3, 19, 16))  # (k, n, count) of the chordal inputs
ABSENCE_GLUED = (10, 12)  # (pieces, count) of the clique sums


def setup_absence_certify(seed: int):
    rng = random.Random(seed)
    graphs = []
    for k, n, count in ABSENCE_KTREES:
        graphs += [(f"{k}-tree", True, gen.k_tree_random(k, n, rng.getrandbits(64))) for _ in range(count)]
    pieces, count = ABSENCE_GLUED
    graphs += [("glued", False, glued_chain(rng, pieces)) for _ in range(count)]
    guard = max(g.n for *_, g in graphs)

    def chordal_op(g, expect):
        def op():
            chordal, _ = det.is_chordal(g)
            return chordal == expect, chordal

        return op

    def absent_op(finder, g):
        def op():
            w = getattr(det, finder)(g, guard=guard)
            return w is None, _witness_record(w)

        return op

    out = []
    for label, chordal, g in graphs:
        out.append((f"is_chordal {label} n={g.n}", chordal_op(g, chordal)))
        for finder in ABSENCE_FINDERS:
            out.append((f"{finder} {label} n={g.n}", absent_op(finder, g)))
    return out


# -- census -------------------------------------------------------------------------

# Treewidth corpora, each certified as one operation.  Exact-DP costs of
# random graphs are heavy-tailed, so a corpus of many small instances is
# timed as a whole rather than graph by graph.
CENSUS_SPARSE = 12  # criterion-2 corpus: width survives subdividing every edge
CENSUS_EHF = 12  # criterion-5 corpus: even-hole- and triangle-free, width <= 5
CENSUS_DP = (18, 5, 16)  # n, 1/p, count of random graphs with lb < ub
K_TREE_COUNTS = ((2, 9, TWO_TREES_ON_9), (3, 10, None))
# Classes per containment operation, at most.  Block j of the classes on n
# vertices takes every stride-th class from the j-th, so each of the 17
# blocks of the 1044 classes on 7 vertices mixes sparse and dense graphs.  No
# seed enters a block, and both the median and the tail rank of the pass fall
# among them, so neither rests on one class or on a seeded corpus.
CONTAINMENT_BLOCK = 64


def _tw_checked(g: Graph):
    w, td = tw.treewidth_exact(g)
    return w, tw.verify_decomposition(g, td) is None and td.width == w


def setup_census(seed: int):
    rng = random.Random(seed)
    sparse = [(g, subdivide_all(g)) for g in suites.seeded_sparse_graphs(CENSUS_SPARSE, rng.getrandbits(64))]
    ehf = suites.seeded_even_hole_triangle_free(CENSUS_EHF, rng.getrandbits(64))
    n_dp, den, count = CENSUS_DP
    dp = []
    while len(dp) < count:
        g = gen.random_graph(n_dp, rng.getrandbits(64), 1, den)
        lb, ub = tw.tw_lower(g), tw.tw_upper(g)[0]
        if lb < ub:
            dp.append((g, lb, ub))
    wall3 = gen.wall(3)

    classes: dict[int, list[Graph]] = {}

    def enumerate_op(n):
        def op():
            classes[n] = gen.enumerate_graphs(n)
            return len(classes[n]) == CLASS_COUNTS[n - 1], len(classes[n])

        return op

    def containment_op(n, j, stride):
        # no even hole implies no K_{2,2}, theta, prism or even wheel
        def op():
            checked = bad = 0
            for g in classes[n][j::stride]:
                if det.find_even_hole(g) is None:
                    checked += 1
                    bad += det.membership_E_t(g, None) is not None
            return bad == 0, [checked, bad]

        return op

    def k_tree_op(k, n, expect):
        def op():
            trees = list(gen.k_tree_enumerate(k, n))
            ok = all(h.n == n and det.is_k_tree(h, k) for h in trees)
            return ok and expect in (None, len(trees)), len(trees)

        return op

    def subdivision_op():
        def op():
            widths = []
            ok = True
            for g, s in sparse:
                w0, ok0 = _tw_checked(g)
                w1, ok1 = _tw_checked(s)
                ok = ok and ok0 and ok1 and w0 == w1
                widths.append(w0)
            return ok, widths

        return op

    def width_op(graphs):
        def op():
            widths = []
            ok = True
            for g, lo, hi in graphs:
                w, certified = _tw_checked(g)
                ok = ok and certified and lo <= w <= hi
                widths.append(w)
            return ok, widths

        return op

    out = []
    for n in range(1, 8):
        out.append((f"enumerate_graphs n={n}", enumerate_op(n)))
        stride = -(-CLASS_COUNTS[n - 1] // CONTAINMENT_BLOCK)
        out += [(f"containment n={n} block {j}", containment_op(n, j, stride)) for j in range(stride)]
    out += [(f"k_tree_enumerate k={k} n={n}", k_tree_op(k, n, e)) for k, n, e in K_TREE_COUNTS]
    out.append(("tw wall(3)", width_op([(wall3, 3, 3)])))
    out.append(("tw criterion-2 corpus", subdivision_op()))
    out.append(("tw criterion-5 corpus", width_op([(g, 0, 5) for g in ehf])))
    out.append((f"tw random n={n_dp} corpus", width_op(dp)))
    return out


# -- cli-session --------------------------------------------------------------------


def _graph_adj(text: str) -> list[set[int]]:
    obj = json.loads(text)
    adj = [set() for _ in range(obj["n"])]
    for u, v in obj["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _pace_width(adj: list[set[int]], text: str) -> int | None:
    """Width of a PACE tree decomposition of the graph, None if invalid."""
    bags: dict[int, set[int]] = {}
    tree: list[tuple[int, int]] = []
    head = None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "s":
            head = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif parts[0] == "b":
            bags[int(parts[1])] = {int(x) - 1 for x in parts[2:]}
        else:
            tree.append((int(parts[0]), int(parts[1])))
    if head is None or head[2] != len(adj) or sorted(bags) != list(range(1, head[0] + 1)):
        return None
    if len(tree) != len(bags) - 1:
        return None
    nbrs: dict[int, set[int]] = {b: set() for b in bags}
    for a, b in tree:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for v in range(len(adj)):
        holding = {b for b, bag in bags.items() if v in bag}
        if not holding:
            return None
        seen, stack = set(), [min(holding)]
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(nbrs[b] & holding)
        if seen != holding:
            return None
        if any(not any(u in bag for bag in bags.values() if v in bag) for u in adj[v]):
            return None
    seen, stack = set(), [1]
    while stack:
        b = stack.pop()
        if b not in seen:
            seen.add(b)
            stack.extend(nbrs[b])
    if len(seen) != len(bags):
        return None
    width = max(len(bag) for bag in bags.values()) - 1
    return width if head[1] == width + 1 else None


def _is_even_hole(adj: list[set[int]], verts: list[int]) -> bool:
    vs = set(verts)
    if len(vs) < 4 or len(vs) % 2 or any(len(adj[v] & vs) != 2 for v in vs):
        return False
    seen, stack = set(), [verts[0]]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v] & vs)
    return seen == vs


def _prism_roles_ok(adj: list[set[int]], report: dict) -> bool:
    corners = [[int(v) for v, r in report["roles"].items() if r == f"triangle{i}"] for i in (0, 1)]
    return all(
        len(tri) == 3 and all(u in adj[v] for u in tri for v in tri if u != v) for tri in corners
    ) and not set(corners[0]) & set(corners[1])


class CliSession:
    """Runs `obslab` subcommands one at a time, each in a new interpreter.
    With a spans directory each call goes through the tracing launcher."""

    def __init__(self, spans_dir: str | None):
        self.spans_dir = spans_dir
        self.calls = 0

    def run(self, args: list[str], stdin: str = "") -> tuple[int, str]:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "obslab.cli", *args]
        else:
            prefix = os.path.join(self.spans_dir, f"cli-{self.calls:03d}")
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), prefix, *args]
        self.calls += 1
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout


def _verify_summary(code: int, out: str, samples: int):
    lines = [json.loads(line) for line in out.splitlines()]
    records, summary = lines[1:-1], lines[-1]
    ok = code == 0 and summary["failures"] == 0 and summary["instances"] == samples == len(records)
    return ok, records


CLI_ROUNDS = 2  # the session below, once per round with fresh seeds


def setup_cli_session(seed: int, spans_dir: str | None = None):
    rng = random.Random(seed)
    cli = CliSession(spans_dir)
    state: dict[str, str] = {}

    def gen_op(key, args):
        def op():
            code, out = cli.run(["gen", *args])
            state[key] = out
            if args[0] == "planted-phantom":
                return code == 0 and set(json.loads(out)) == {"graph", "phantom"}, out
            return code == 0 and len(_graph_adj(out)) > 0, out

        return op

    def tw_op(key, width):
        def op():
            code, out = cli.run(["tw"], state[key])
            return code == 0 and _pace_width(_graph_adj(state[key]), out) == width, out

        return op

    def bounds_op(key, width):
        def op():
            code, out = cli.run(["tw", "--bounds"], state[key])
            rep = json.loads(out)
            return code == 0 and rep["lower"] <= width <= rep["upper"], rep

        return op

    def detect_op(key, structure, expect):
        def op():
            adj = _graph_adj(state[key])
            code, out = cli.run(["detect", structure, "--guard", str(len(adj))], state[key])
            rep = json.loads(out)
            if structure == "class-membership":
                ok = rep["member"] is expect
            elif not expect:
                ok = rep["found"] is False
            elif structure == "even-hole":
                ok = rep["found"] and _is_even_hole(adj, rep["vertices"])
            else:
                ok = rep["found"] and _prism_roles_ok(adj, rep)
            return code == 0 and ok, rep

        return op

    def validate_op(key):
        def op():
            code, out = cli.run(["validate", "phantom"], state[key])
            return code == 0 and json.loads(out) == {"valid": True}, out

        return op

    def extract_op(key):
        def op():
            payload = json.loads(state[key])
            payload["params"] = {"f": 1, "g": 1}
            code, out = cli.run(["extract", "phantom-to-crystal"], json.dumps(payload))
            rep = json.loads(out)
            return code == 0 and rep["variant"] in ("crystal", "clique-family"), rep

        return op

    def verify_op(suite, samples, s):
        def op():
            code, out = cli.run(["verify", suite, "--samples", str(samples), "--seed", s])
            return _verify_summary(code, out, samples)

        return op

    out = []
    for r in range(CLI_ROUNDS):
        s_kt, s_obs, s_ph, s_cr, s_ex, s_co = (str(rng.randrange(1 << 31)) for _ in range(6))
        wall, ktree, obs, phantom = (f"{name}{r}" for name in ("wall", "ktree", "obs", "phantom"))
        out += [
            ("gen wall 3", gen_op(wall, ["wall", "3"])),
            ("tw wall", tw_op(wall, 3)),
            ("tw --bounds wall", bounds_op(wall, 3)),
            ("detect even-hole wall", detect_op(wall, "even-hole", True)),
            ("detect class-membership wall", detect_op(wall, "class-membership", False)),
            ("gen k-tree 2 16", gen_op(ktree, ["k-tree", "2", "16", "--seed", s_kt])),
            ("tw k-tree", tw_op(ktree, 2)),
            ("detect even-hole k-tree", detect_op(ktree, "even-hole", False)),
            ("detect class-membership k-tree", detect_op(ktree, "class-membership", True)),
            ("gen obstruction 3 line_of_wall", gen_op(obs, ["obstruction", "3", "line_of_wall", "--seed", s_obs])),
            ("detect prism obstruction", detect_op(obs, "prism", True)),
            ("gen planted-phantom 2 2 1", gen_op(phantom, ["planted-phantom", "2", "2", "1", "--seed", s_ph])),
            ("validate phantom", validate_op(phantom)),
            ("extract phantom-to-crystal", extract_op(phantom)),
            ("verify crystallized", verify_op("crystallized", 30, s_cr)),
            ("verify extractors", verify_op("extractors", 10, s_ex)),
            ("verify contraption", verify_op("contraption", 20, s_co)),
        ]
    return out


WORKLOADS = {
    "witness-search": setup_witness_search,
    "absence-certify": setup_absence_certify,
    "census": setup_census,
    "cli-session": setup_cli_session,
}
