"""Batch command-line entry point.

Subcommands: gen, detect, tw, validate, extract, verify, scan-conjecture.
Graphs travel as JSON objects ({"n": ..., "edges": [[u,v], ...]}) or the
plain edge-list text format; reports are JSON lines ordered by instance
index.  Exit codes: 0 success, 1 invalid input, 2 structured violation.

Determinism: every randomized family takes a mandatory --seed; re-running a
verify suite with identical flags and seed reproduces the report byte for
byte apart from the elapsed field on the summary line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from . import detectors as det
from . import extractors as ext
from . import generators as gen
from . import graph_core as gc
from . import structures as st
from . import treewidth as tw
from .errors import InvalidInput, ScaleLimit
from .suites import SUITES, scan_conjecture

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2


def _read_graph(args) -> gc.Graph:
    text = sys.stdin.read()
    if getattr(args, "format", "json") == "edgelist":
        return gc.from_edge_list(text)
    return gc.loads_graph(text)


def _emit_graph(g: gc.Graph, args) -> None:
    if getattr(args, "format", "json") == "edgelist":
        sys.stdout.write(gc.to_edge_list(g))
    else:
        print(gc.dumps_graph(g))


def _emit(obj) -> None:
    """Print obj as one compact JSON line."""
    print(json.dumps(obj, separators=(",", ":")))


# -- gen -----------------------------------------------------------------------


# family -> (parameter count, builder from the integer parameters and the
# parsed arguments); crystal takes that count per arm, and obstruction's
# second parameter is its kind name
_FAMILIES = {
    "complete": (1, lambda p, a: gen.complete(*p)),
    "biclique": (2, lambda p, a: gen.complete_bipartite(*p)),
    "cycle": (1, lambda p, a: gen.cycle(*p)),
    "path": (1, lambda p, a: gen.path_graph(*p)),
    "cone-path": (1, lambda p, a: gen.cone(gen.path_graph(p[0] + 1))),
    "wall": (1, lambda p, a: gen.wall(*p)),
    "tree": (2, lambda p, a: gen.tree_T(*p)[0]),
    "double-star": (2, lambda p, a: gen.double_star(*p)[0]),
    "crystal": (
        2,
        lambda p, a: gen.crystal_graph(gen.CrystalSpec(len(p) // 2, tuple(zip(p[::2], p[1::2])))),
    ),
    "k-tree": (2, lambda p, a: gen.k_tree_random(*p, a.seed)),
    "obstruction": (2, lambda p, a: gen.basic_obstruction(*p, seed=a.seed)),
    "planted-phantom": (
        3,
        lambda p, a: gen.plant_phantom(
            gen.complete(p[0]), *p[1:], seed=a.seed, density=a.density or "minimal"
        ),
    ),
    "planted-crystal": (2, lambda p, a: gen.plant_crystal(*p, noise_seed=a.seed)),
}


def cmd_gen(args) -> int:
    name, params = args.family, args.params
    seed_needed = name in ("k-tree", "obstruction", "planted-phantom", "planted-crystal")
    if seed_needed and args.seed is None:
        raise InvalidInput(f"family {name!r} is randomized: --seed is mandatory")
    if name not in _FAMILIES:
        raise InvalidInput(f"unknown family {name!r}")
    if args.density is not None and name != "planted-phantom":
        raise InvalidInput("--density applies only to planted-phantom")
    if args.format == "edgelist" and name.startswith("planted-"):
        raise InvalidInput(f"family {name!r} plants a structure: it has no edge-list form")
    count, build = _FAMILIES[name]
    if len(params) % count if name == "crystal" else len(params) != count:
        per = " per arm" if name == "crystal" else ""
        raise InvalidInput(f"family {name!r} takes {count} parameters{per}, got {len(params)}")
    texts = params[:1] if name == "obstruction" else params
    p = [gc.text_int(x, f"family {name!r} parameter") for x in texts] + params[len(texts) :]
    out = build(p, args)
    if name == "planted-phantom":
        _emit({"graph": gc.graph_to_json_obj(out[0]), "phantom": st.phantom_to_json_obj(out[1])})
    elif name == "planted-crystal":
        _emit({"graph": gc.graph_to_json_obj(out[0]), "crystal": st.crystal_to_json_obj(out[1])})
    else:
        _emit_graph(out, args)
    return EXIT_OK


# -- detect ---------------------------------------------------------------------


# structure -> finder from the graph and the parsed arguments, with the
# defaults of _DETECT_FLAGS applied; the class-membership report also says
# whether the graph is a member
_STRUCTURES = {
    "hole": lambda g, a: det.find_hole(g),
    "even-hole": lambda g, a: det.find_even_hole(g, a.guard),
    "theta": lambda g, a: det.find_theta(g, a.guard),
    "prism": lambda g, a: det.find_prism(g, a.guard),
    "even-wheel": lambda g, a: det.find_even_wheel(g, a.guard),
    "clique": lambda g, a: det.find_clique(g, a.c, a.guard),
    "biclique": lambda g, a: det.find_induced_biclique(g, a.s, a.s, a.guard),
    "class-membership": lambda g, a: det.membership_E_t(g, a.t, a.guard),
}


# flag -> (its default, the structures that read it); the others refuse it
_DETECT_FLAGS = {
    "c": (3, ("clique",)),
    "s": (2, ("biclique",)),
    "t": (None, ("class-membership",)),
    "guard": (det.DEFAULT_GUARD, tuple(s for s in _STRUCTURES if s != "hole")),
}


def cmd_detect(args) -> int:
    for flag, (default, readers) in _DETECT_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.structure not in readers:
            raise InvalidInput(f"detect {args.structure} does not take --{flag}")
    g = _read_graph(args)
    w = _STRUCTURES[args.structure](g, args)
    report = {"found": w is not None}
    if args.structure == "class-membership":
        report["member"] = w is None
    report["vertices"] = list(w.vertices) if w else []
    report["roles"] = {str(v): r for v, r in (w.roles.items() if w else ())}
    _emit(report)
    return EXIT_OK


# -- tw --------------------------------------------------------------------------


def cmd_tw(args) -> int:
    if args.bounds and args.exact_guard is not None:
        raise InvalidInput("--exact-guard does not combine with --bounds")
    g = _read_graph(args)
    if args.bounds:
        lo = tw.tw_lower(g)
        hi, _ = tw.tw_upper(g)
        _emit({"lower": lo, "upper": hi})
        return EXIT_OK
    guard = tw.DEFAULT_EXACT_GUARD if args.exact_guard is None else args.exact_guard
    width, td = tw.treewidth_exact(g, guard=guard)
    sys.stdout.write(tw.to_pace(td, g.n))
    return EXIT_OK


# -- validate --------------------------------------------------------------------


def cmd_validate(args) -> int:
    if args.clear and args.kind != "crystal":
        raise InvalidInput("--clear applies only to crystal")
    if args.mirrored is not None and args.kind != "kaleidoscope":
        raise InvalidInput("--mirrored applies only to kaleidoscope")
    try:
        obj = json.loads(sys.stdin.read())
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict) or "graph" not in obj:
        raise InvalidInput("expected an object with a 'graph' member")
    kind = args.kind
    if kind not in obj:
        raise InvalidInput(f"expected a '{kind}' member")
    g = gc.graph_from_json_obj(obj["graph"])
    if kind == "phantom":
        p = st.phantom_from_json_obj(obj["phantom"])
        bad = st.validate_phantom(g, p)
    elif kind == "crystal":
        c = st.crystal_from_json_obj(obj["crystal"])
        bad = st.validate_crystal(g, c)
        if bad is None and args.clear and not st.is_clear_crystal(g, c):
            bad = st.StructureViolation("clear", "side sets are not pairwise anticomplete stable")
    elif kind == "kaleidoscope":
        k = st.kaleidoscope_from_json_obj(obj["kaleidoscope"])
        bad = st.validate_kaleidoscope(g, k)
        if bad is None and args.mirrored is not None:
            zset = obj.get("mirrored-set", [])
            if not isinstance(zset, list):
                raise InvalidInput("'mirrored-set' must be a list of vertices")
            zset = [gc.json_int(z, "mirrored-set vertex") for z in zset]
            ok, why = st.is_mirrored(g, k, zset, args.mirrored)
            bad = None if ok else why
    else:  # decomposition, the last of the parser's choices
        if not isinstance(obj["decomposition"], str):
            raise InvalidInput("'decomposition' must be PACE-style text")
        td, _ = tw.from_pace(obj["decomposition"])
        bad = tw.verify_decomposition(g, td)
        if bad is not None:
            bad = st.StructureViolation(bad.axiom, bad.detail)
    if bad is None:
        _emit({"valid": True})
        return EXIT_OK
    _emit({"valid": False, "clause": bad.clause, "detail": bad.detail})
    return EXIT_VIOLATION


# -- extract ---------------------------------------------------------------------


def _payload_obj(payload) -> dict:
    if isinstance(payload, st.Crystal):
        return {"crystal": st.crystal_to_json_obj(payload)}
    if isinstance(payload, ext.ConeTree):
        return {
            "cone-tree": {
                "root": payload.root,
                "parent": {str(v): u for v, u in sorted(payload.parent.items())},
                "level": {str(v): l for v, l in sorted(payload.level.items())},
                "d": payload.d,
                "r": payload.r,
            }
        }
    if isinstance(payload, tuple):
        return {"clique-family": [sorted(k) for k in payload]}
    return {"value": payload}


def cmd_extract(args) -> int:
    try:
        obj = json.loads(sys.stdin.read())
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON: {exc}") from exc
    try:
        return _run_extract(args, obj)
    except InvalidInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed extraction input: {exc!r}") from exc


def _run_extract(args, obj) -> int:
    g = gc.graph_from_json_obj(obj["graph"])
    params = obj.get("params", {})

    def param(key: str) -> int:
        return gc.json_int(params[key], f"params.{key}")

    op = args.operation
    if op == "crystallized-vertex":
        z, (z1, z2, s1, s2) = ext.find_crystallized_vertex(g)
        payload = {"vertex": z, "anchors": [z1, z2], "sides": [sorted(s1), sorted(s2)]}
        return _emit_outcome("crystallized", payload)
    if op == "clear-crystal":
        c = st.crystal_from_json_obj(obj["crystal"])
        out = ext.clear_crystal(g, c, param("f"), param("g"))
        if isinstance(out, ext.HypothesisViolation):
            return _emit_violation(out)
        return _emit_outcome("clear-crystal", st.crystal_to_json_obj(out))
    if op == "phantom-to-crystal":
        p = st.phantom_from_json_obj(obj["phantom"])
        out = ext.phantom_to_crystal(g, p, param("f"), param("g"))
        return _emit_extraction(out)
    # phantom-to-cone-tree, the last of the parser's choices
    p = st.phantom_from_json_obj(obj["phantom"])
    out = ext.phantom_to_cone_tree(
        g,
        [gc.json_int(v, "context vertex") for v in obj["context"]],
        param("z1"),
        param("z2"),
        param("z"),
        p,
        d=param("d"),
        g=param("g"),
        h=param("h"),
        t=param("t"),
    )
    if isinstance(out, ext.HypothesisViolation):
        return _emit_violation(out)
    if isinstance(out, ext.ClassObstruction):
        payload = {"kind": out.kind, "vertices": list(out.vertices)}
        return _emit_outcome("class-obstruction", payload, code=EXIT_VIOLATION)
    return _emit_extraction(out)


def _jsonable(x):
    if isinstance(x, (tuple, frozenset)):
        return sorted(x) if isinstance(x, frozenset) else list(x)
    return x


def _emit_outcome(variant: str, payload, trace=(), code: int = EXIT_OK) -> int:
    _emit({"variant": variant, "payload": payload, "trace": list(trace)})
    return code


def _emit_extraction(out: "ext.ExtractionOutcome") -> int:
    trace = [list(map(_jsonable, step)) for step in out.trace]
    return _emit_outcome(out.variant, _payload_obj(out.payload), trace)


def _emit_violation(out: "ext.HypothesisViolation") -> int:
    payload = {
        "step": out.step,
        "detail": out.detail,
        "needed": out.needed,
        "available": out.available,
    }
    return _emit_outcome("hypothesis-violation", payload, code=EXIT_VIOLATION)


# -- verify -----------------------------------------------------------------------


# verify flag -> suite parameter; a suite gets the flags the user set, which
# its signature must name, and its own defaults for the rest
_VERIFY_FLAGS = {"t": "t_max", "n": "n_max", "c": "c", "s": "s", "samples": "samples", "seed": "seed"}


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    for flag, param in _VERIFY_FLAGS.items():
        if getattr(args, flag) is None:
            continue
        if param not in params:
            raise InvalidInput(f"verify {args.suite} does not take --{flag}")
        kwargs[param] = getattr(args, flag)
    t0 = time.perf_counter()
    records = suite(**kwargs)
    elapsed = time.perf_counter() - t0
    if not records:
        raise InvalidInput(f"verify {args.suite}: these settings give no instances to check")
    header = {"schema": SCHEMA_VERSION, "command": f"verify {args.suite}"}
    if "seed" in params:
        header["seed"] = kwargs.get("seed", params["seed"].default)
    _emit(header)
    failures = 0
    for rec in records:
        if not rec["ok"]:
            failures += 1
        _emit(rec)
    summary = {
        "instances": len(records),
        "failures": failures,
        "elapsed": round(elapsed, 3),
    }
    _emit(summary)
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# -- scan-conjecture -----------------------------------------------------------------


def cmd_scan_conjecture(args) -> int:
    try:
        with open(args.pattern) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read pattern file: {exc}") from exc
    h = gc.loads_graph(text)
    if not det.is_k_forest(h, 2):
        raise InvalidInput("pattern graph must be a 2-forest")
    # the scan runs before the header, so a refusal leaves stdout empty
    checked, best, records = scan_conjecture(h, args.t, args.n, args.samples, args.seed)
    header = {
        "schema": SCHEMA_VERSION,
        "command": "scan-conjecture",
        "seed": args.seed,
        "t": args.t,
        "n_max": args.n,
    }
    _emit(header)
    for rec in records:
        _emit(rec)
    _emit({"checked": checked, "max_treewidth_observed": best, "conclusive": False})
    return EXIT_OK


# -- parser -----------------------------------------------------------------------------


def _flag_int(word: str) -> int:
    """The type of every integer flag: ASCII digits only, read by the one
    parser of integers written as text."""
    try:
        return gc.text_int(word, "flag value")
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="obslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph family as JSON")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=_flag_int, default=None)
    p.add_argument("--density", choices=("minimal", "coned"), default=None)
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("detect", help="search the stdin graph for a structure")
    p.add_argument("structure", choices=tuple(_STRUCTURES))
    for flag in _DETECT_FLAGS:
        p.add_argument(f"--{flag}", type=_flag_int)
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("tw", help="treewidth of the stdin graph")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--exact-guard", type=_flag_int)
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.set_defaults(func=cmd_tw)

    p = sub.add_parser("validate", help="validate a (graph, structure) pair from stdin")
    p.add_argument("kind", choices=("phantom", "crystal", "kaleidoscope", "decomposition"))
    p.add_argument("--clear", action="store_true")
    p.add_argument("--mirrored", type=_flag_int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extract", help="run a constructive extraction on stdin input")
    p.add_argument(
        "operation",
        choices=(
            "crystallized-vertex",
            "clear-crystal",
            "phantom-to-crystal",
            "phantom-to-cone-tree",
        ),
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    for flag in _VERIFY_FLAGS:
        p.add_argument(f"--{flag}", type=_flag_int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan-conjecture", help="bounded, non-conclusive counterexample scan")
    p.add_argument("pattern", help="path to the excluded 2-forest, graph JSON")
    p.add_argument("--t", type=_flag_int, required=True)
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--samples", type=_flag_int, default=50)
    p.add_argument("--seed", type=_flag_int, default=0)
    p.set_defaults(func=cmd_scan_conjecture)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a structured violation
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScaleLimit as exc:
        print(f"scale limit: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
