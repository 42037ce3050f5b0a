import io
import json
import os
import random
import subprocess
import sys

import pytest

from obslab import cli, generators, treewidth
from obslab.generators import complete, cone, cycle, path_graph, plant_crystal, plant_phantom, random_graph
from obslab.graph_core import dumps_graph, loads_graph
from obslab.structures import crystal_to_json_obj, phantom_to_json_obj
from obslab.suites import suite_crystallized


def run_cli(argv, stdin_text=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, out


def test_gen_families():
    code, out = run_cli(["gen", "complete", "5"])
    assert code == 0
    assert loads_graph(out) == complete(5)
    code, out = run_cli(["gen", "cone-path", "2"])
    assert loads_graph(out) == cone(path_graph(3))
    code, out = run_cli(["gen", "wall", "3"])
    assert code == 0 and loads_graph(out).n == 22
    code, out = run_cli(["gen", "k-tree", "2", "6"])
    assert code == 1  # randomized family without --seed
    code, out = run_cli(["gen", "k-tree", "2", "6", "--seed", "4"])
    assert code == 0 and loads_graph(out).n == 6
    code, out = run_cli(["gen", "crystal", "1", "1"])
    assert code == 0 and loads_graph(out).n == 5


def test_gen_edgelist_format():
    code, out = run_cli(["gen", "complete", "3", "--format", "edgelist"])
    assert code == 0
    assert out == "3 3\n0 1\n0 2\n1 2\n"


def test_pipeline_wall_tw():
    _, g = run_cli(["gen", "wall", "3"])
    code, out = run_cli(["tw"], g)
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:2] == ["s", "td"] and int(header[3]) - 1 == 3


def test_pipeline_wall_4_exact_past_the_default_guard():
    # 38 vertices: the reduction rules leave the DP a small fill graph
    _, g = run_cli(["gen", "wall", "4"])
    code, out = run_cli(["tw", "--exact-guard", "38"], g)
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:2] == ["s", "td"] and int(header[3]) - 1 == 4 and int(header[4]) == 38
    payload = json.dumps({"graph": json.loads(g), "decomposition": out})
    assert run_cli(["validate", "decomposition"], payload) == (0, '{"valid":true}\n')


def test_pipeline_detect():
    _, g = run_cli(["gen", "cone-path", "2"])
    code, out = run_cli(["detect", "even-hole"], g)
    assert code == 0
    assert json.loads(out) == {"found": False, "vertices": [], "roles": {}}
    _, g = run_cli(["gen", "complete", "5"])
    code, out = run_cli(["detect", "clique", "--c", "5"], g)
    assert json.loads(out)["found"] is True


def test_tw_bounds():
    code, out = run_cli(["tw", "--bounds"], dumps_graph(complete(6)))
    assert code == 0
    assert json.loads(out) == {"lower": 5, "upper": 5}


def test_tw_bounds_on_a_dense_graph_run_no_clique_search():
    # the clique number minus one never exceeds degeneracy, so the lower
    # bound runs no clique search, which costs tens of seconds on this graph
    code, out = run_cli(["tw", "--bounds"], dumps_graph(random_graph(128, 7, 7, 8)))
    assert (code, out) == (0, '{"lower":102,"upper":121}\n')
    assert not hasattr(treewidth, "max_clique")


def test_detect_membership():
    _, g = run_cli(["gen", "cycle", "7"])
    code, out = run_cli(["detect", "class-membership", "--t", "3"], g)
    assert json.loads(out)["member"] is True


def test_detect_biclique_on_long_cycle():
    # no two vertices of C64 share 8 neighbors, so no side A is tried
    _, g = run_cli(["gen", "cycle", "64"])
    code, out = run_cli(["detect", "biclique", "--s", "8"], g)
    assert code == 0 and json.loads(out)["found"] is False


def test_validate_phantom_roundtrip():
    host, p = plant_phantom(complete(2), 2, 1)
    payload = json.dumps(
        {"graph": json.loads(dumps_graph(host)), "phantom": phantom_to_json_obj(p)}
    )
    code, out = run_cli(["validate", "phantom"], payload)
    assert code == 0 and json.loads(out)["valid"] is True
    broken = phantom_to_json_obj(p)
    broken["layers"][1] = broken["layers"][1][:-1]
    payload = json.dumps({"graph": json.loads(dumps_graph(host)), "phantom": broken})
    code, out = run_cli(["validate", "phantom"], payload)
    assert code == 2 and json.loads(out)["valid"] is False


def test_validate_crystal_and_clear_flag():
    host, c = plant_crystal(1, 1)
    payload = json.dumps(
        {"graph": json.loads(dumps_graph(host)), "crystal": crystal_to_json_obj(c)}
    )
    code, out = run_cli(["validate", "crystal", "--clear"], payload)
    assert code == 0 and json.loads(out)["valid"] is True
    noisy_host, noisy = plant_crystal(2, 2, noise_seed=3, noise_num=1, noise_den=2)
    payload = json.dumps(
        {"graph": json.loads(dumps_graph(noisy_host)), "crystal": crystal_to_json_obj(noisy)}
    )
    code, out = run_cli(["validate", "crystal"], payload)
    assert code == 0
    code, out = run_cli(["validate", "crystal", "--clear"], payload)
    assert code == 2


def test_extract_crystallized():
    _, g = run_cli(["gen", "cone-path", "2"])
    payload = json.dumps({"graph": json.loads(g)})
    code, out = run_cli(["extract", "crystallized-vertex"], payload)
    assert code == 0
    rep = json.loads(out)
    assert rep["variant"] == "crystallized"


def test_extract_clear_crystal_from_a_large_family():
    # 1,000 side pairs, 1,000 of them chosen: one stack entry per member
    host, c = plant_crystal(1, 1000)
    payload = {
        "graph": json.loads(dumps_graph(host)),
        "crystal": crystal_to_json_obj(c),
        "params": {"f": 1, "g": 500},
    }
    code, out = run_cli(["extract", "clear-crystal"], json.dumps(payload))
    assert code == 0
    rep = json.loads(out)
    assert rep["variant"] == "clear-crystal"
    assert [len(side) for side in rep["payload"]["sides"]["2"]] == [500, 500]


def test_extract_phantom_to_crystal():
    host, p = plant_phantom(complete(2), 2, 2)
    payload = json.dumps(
        {
            "graph": json.loads(dumps_graph(host)),
            "phantom": phantom_to_json_obj(p),
            "params": {"f": 1, "g": 1},
        }
    )
    code, out = run_cli(["extract", "phantom-to-crystal"], payload)
    assert code == 0
    rep = json.loads(out)
    assert rep["variant"] == "crystal"
    assert "crystal" in rep["payload"]


def _cone_tree_payload():
    host, p = plant_phantom(complete(3), 2, 1, density="coned")
    return {
        "graph": json.loads(dumps_graph(host)),
        "phantom": phantom_to_json_obj(p),
        "context": [0, 1, 2],
        "params": {"z1": 0, "z2": 1, "z": 2, "d": 1, "g": 1, "h": 3, "t": 4},
    }


def test_extract_cone_tree():
    code, out = run_cli(["extract", "phantom-to-cone-tree"], json.dumps(_cone_tree_payload()))
    assert code == 0
    assert json.loads(out)["variant"] == "cone-tree"


def test_exit_codes_on_malformed_input():
    code, _ = run_cli(["detect", "theta"], "not json")
    assert code == 1
    code, _ = run_cli(["tw"], '{"n": "x"}')
    assert code == 1
    code, _ = run_cli(["gen", "unknown-family"])
    assert code == 1


def test_detect_rejects_non_integer_json(capsys):
    code, out = run_cli(["detect", "even-hole"], '{"n":3.9,"edges":[[0,1.7],[true,2]]}')
    assert code == 1 and out == ""
    assert "not an integer" in capsys.readouterr().err


def test_verify_rejects_empty_suite(capsys):
    code, out = run_cli(["verify", "obstructions", "--t", "0"])
    assert code == 1 and out == ""
    assert "no instances" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["crystallized", "--samples", "0"], ["class-containment", "--n", "0"], ["contraption", "--n", "0"]],
)
def test_verify_keeps_an_explicit_zero(argv):
    code, out = run_cli(["verify", *argv])
    assert code == 1 and out == ""


def test_verify_defaults_belong_to_the_suite():
    code, out = run_cli(["verify", "crystallized"])
    assert code == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert lines[1:-1] == suite_crystallized()


def test_verify_report_deterministic():
    code1, out1 = run_cli(["verify", "ramsey", "--c", "2", "--s", "2", "--seed", "3", "--samples", "20"])
    code2, out2 = run_cli(["verify", "ramsey", "--c", "2", "--s", "2", "--seed", "3", "--samples", "20"])
    assert code1 == code2 == 0
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in text.splitlines()
    ]
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("c, s", [("2", "7"), ("3", "1000000")])
def test_verify_ramsey_refuses_a_threshold_past_the_guard(c, s, monkeypatch, capsys):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a graph was built before the guard was checked")

    monkeypatch.setattr(generators, "complete", unbuilt)
    monkeypatch.setattr(generators, "random_graph", unbuilt)
    code, out = run_cli(["verify", "ramsey", "--c", c, "--s", s])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("scale limit:")


@pytest.mark.parametrize("c, s", [("3", "0"), ("0", "2")])
def test_verify_ramsey_names_the_size_below_one(c, s, capsys):
    code, out = run_cli(["verify", "ramsey", "--c", c, "--s", s])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == f"invalid input: clique size c and stable set size s must be >= 1, got c={c}, s={s}\n"


def test_verify_class_containment_refuses_past_the_enumeration_limit(monkeypatch, capsys):
    def unbuilt(*args, **kwargs):
        raise AssertionError("graphs were enumerated before the limit was checked")

    monkeypatch.setattr(generators, "enumerate_graphs", unbuilt)
    code, out = run_cli(["verify", "class-containment", "--n", "9"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("scale limit:")


def test_verify_class_containment_small():
    code, out = run_cli(["verify", "class-containment", "--n", "5"])
    assert code == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert lines[-1]["failures"] == 0


def test_scan_conjecture(tmp_path):
    target = tmp_path / "pattern.json"
    target.write_text(dumps_graph(cone(path_graph(3))))
    code, out = run_cli(
        ["scan-conjecture", str(target), "--t", "4", "--n", "4", "--seed", "1"]
    )
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last["conclusive"] is False
    assert last["max_treewidth_observed"] <= 3
    # 33 graphs on at most 5 vertices have no even hole, no K_4 and no diamond
    code, out = run_cli(["scan-conjecture", str(target), "--t", "4", "--n", "5"])
    assert code == 0 and json.loads(out.splitlines()[-1])["checked"] == 33
    bad = tmp_path / "hole.json"
    bad.write_text(dumps_graph(cone(cone(path_graph(3)))))
    code, _ = run_cli(["scan-conjecture", str(bad), "--t", "4", "--n", "4"])
    assert code == 1  # pattern contains K4, not a 2-forest


def test_verify_obstructions_guards_its_own_instances():
    # seed 2 draws a t=4 line graph on 129 vertices
    code, out = run_cli(["verify", "obstructions", "--t", "3", "--samples", "2", "--seed", "2"])
    assert code == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert "workers" not in lines[0]
    assert lines[-1]["failures"] == 0
    assert max(rec.get("n", 0) for rec in lines[1:-1]) > 128


@pytest.mark.parametrize(
    "flags, error",
    [(["--t", "4", "--n", "23"], "scale limit:"), (["--t", "0", "--n", "3"], "invalid input:")],
)
def test_scan_conjecture_fails_before_its_header(flags, error, tmp_path, capsys):
    target = tmp_path / "pattern.json"
    target.write_text(dumps_graph(cone(path_graph(3))))
    code, out = run_cli(["scan-conjecture", str(target), *flags])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith(error)


def test_scan_conjecture_missing_pattern(tmp_path):
    code, out = run_cli(["scan-conjecture", str(tmp_path / "absent.json"), "--t", "4", "--n", "4"])
    assert code == 1 and out == ""


@pytest.mark.parametrize("kind", ["phantom", "crystal", "kaleidoscope", "decomposition"])
def test_validate_missing_member(kind):
    payload = json.dumps({"graph": json.loads(dumps_graph(complete(3)))})
    code, out = run_cli(["validate", kind], payload)
    assert code == 1 and out == ""


def _crystal_payload(**changes):
    host, c = plant_crystal(1, 1)
    obj = crystal_to_json_obj(c)
    obj.update(changes)
    return {"graph": json.loads(dumps_graph(host)), "crystal": obj}


def _phantom_payload(d=2, params=None):
    host, p = plant_phantom(complete(2), 2, 2)
    obj = phantom_to_json_obj(p)
    obj["d"] = d
    return {"graph": json.loads(dumps_graph(host)), "phantom": obj, "params": params or {}}


def _decomposition_payload(text):
    return {"graph": {"n": 2, "edges": [[0, 1]]}, "decomposition": text}


def _phantom_payload_keyed(key):
    payload = _phantom_payload()
    level = payload["phantom"]["gamma"][0]
    level[key] = level.pop("0-1")
    return payload


_PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]]}


def _changed(payload, value, *path):
    """A copy of payload with the sub-value at path replaced by value."""
    out = json.loads(json.dumps(payload))
    cur = out
    for key in path[:-1]:
        cur = cur[key]
    cur[path[-1]] = value
    return out


def _kaleidoscope_payload(zset):
    # a four-cycle x=0, a=1, y=2 with the one path 0-3-2, plus a loose vertex 4
    graph = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    fan = {"a": 1, "x": 0, "y": 2, "paths": [[0, 3, 2]]}
    return {"graph": graph, "kaleidoscope": fan, "mirrored-set": zset}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["validate", "crystal"], _crystal_payload(z1=0.9)),
        (["validate", "crystal"], _crystal_payload(S=[2.7])),
        (["validate", "crystal"], _crystal_payload(z2=True)),
        (["validate", "crystal"], _crystal_payload(z2="1")),
        (["validate", "phantom"], _phantom_payload(d=2.5)),
        (["extract", "phantom-to-crystal"], _phantom_payload(params={"f": 1.9, "g": True})),
        (["validate", "decomposition"], _decomposition_payload(5)),
        (["validate", "decomposition"], _decomposition_payload("s td x 1 6")),
        (["validate", "decomposition"], _decomposition_payload("s td 1 2 2\nb 1 0 1\n")),
        (["validate", "kaleidoscope", "--mirrored", "1"], _kaleidoscope_payload([2.5])),
        (["validate", "kaleidoscope", "--mirrored", "1"], _kaleidoscope_payload("ab")),
        (["validate", "kaleidoscope", "--mirrored", "1"], _kaleidoscope_payload(4)),
        (["validate", "decomposition"], _decomposition_payload("s td 1 2 2\nb 1 1 2 1000000\n")),
        (["validate", "phantom"], _phantom_payload_keyed("+0- 1")),
        (["validate", "crystal"], _crystal_payload(sides={" +2": [[3], [4]]})),
        pytest.param(["detect", "even-hole", "--format", "edgelist"], "2 1\n0 +1\n", id="edgelist"),
        (["validate", "decomposition"], _decomposition_payload("s td 1 2 2\nb 1 1 0_2\n")),
        (["validate", "decomposition"], _decomposition_payload("s td 2 2 2\nb 1 1 2\n")),
        # one vertex above graph_core.MAX_VERTICES
        (["detect", "even-hole"], {"n": 10_001, "edges": []}),
        (["gen", "complete", " +3"], ""),
        (["gen", "cycle", "1_0"], ""),
        # rejected by the vertex cap before any edge is listed
        (["gen", "complete", "10001"], ""),
        # a flag that does not apply to the command is refused, not dropped
        (["validate", "phantom", "--clear"], _phantom_payload()),
        (["validate", "phantom", "--mirrored", "2"], _phantom_payload()),
        (["validate", "kaleidoscope", "--clear"], _kaleidoscope_payload([4])),
        (["validate", "crystal", "--mirrored", "1"], _crystal_payload()),
        (["gen", "complete", "3", "--density", "coned"], ""),
        (["gen", "planted-crystal", "1", "1", "--seed", "2", "--format", "edgelist"], ""),
        (["gen", "planted-phantom", "2", "2", "1", "--seed", "2", "--format", "edgelist"], ""),
        (["detect", "even-hole", "--c", "5"], _PATH3),
        (["detect", "even-hole", "--s", "9"], _PATH3),
        (["detect", "even-hole", "--t", "4"], _PATH3),
        (["detect", "biclique", "--c", "3"], _PATH3),
        (["detect", "clique", "--s", "2"], _PATH3),
        (["detect", "theta", "--t", "0"], _PATH3),
        (["detect", "hole", "--guard", "1"], _PATH3),
        (["tw", "--bounds", "--exact-guard", "5"], _PATH3),
        (["verify", "class-containment", "--n", "3", "--seed", "7", "--samples", "4"], ""),
        (["verify", "class-containment", "--samples", "4"], ""),
        (["verify", "ramsey", "--n", "3"], ""),
        # a container of the wrong JSON type, and a vertex outside the graph,
        # in each structure
        (["validate", "crystal"], _crystal_payload(sides=3)),
        (["validate", "phantom"], _changed(_phantom_payload(), "x", "phantom", "gamma", 0)),
        (
            ["validate", "crystal"],
            {
                "graph": {"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [2, 3]]},
                "crystal": {"z1": 0, "z2": 1, "S": [2], "sides": {"2": [[3], [1000000]]}},
            },
        ),
        (["validate", "phantom"], _changed(_phantom_payload(), [0, 1, 2**70], "phantom", "layers", 0)),
        (["validate", "kaleidoscope"], _changed(_kaleidoscope_payload([4]), [[]], "kaleidoscope", "paths")),
        # a repeated bag id, and a header whose bag size or vertex count is
        # not the decomposition's
        (["validate", "decomposition"], _decomposition_payload("s td 1 2 2\nb 1 1\nb 1 1 2\n")),
        (["validate", "decomposition"], _decomposition_payload("s td 1 9 2\nb 1 1 2\n")),
        (["validate", "decomposition"], _decomposition_payload("s td 1 2 99\nb 1 1 2\n")),
        # the header declares two edges, and the second repeats the first
        pytest.param(["tw", "--bounds", "--format", "edgelist"], "3 2\n0 1\n1 0\n", id="repeated-edge"),
    ],
)
def test_outside_input_is_read_strictly(argv, payload, capsys):
    code, out = run_cli(argv, payload if isinstance(payload, str) else json.dumps(payload))
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("invalid input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "k-tree", "2", "5", "--seed", "+1"],
        ["gen", "k-tree", "2", "5", "--seed", "-1"],
        ["detect", "even-hole", "--guard", " 9"],
        ["tw", "--exact-guard", "1_0"],
        ["verify", "ramsey", "--samples", "\u0661"],
        ["scan-conjecture", "pattern.json", "--t", "3", "--n", "8", "--seed", "1.0"],
    ],
)
def test_integer_flags_are_read_strictly(argv, capsys):
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert "is not a nonnegative integer" in capsys.readouterr().err


def test_strict_reading_keeps_valid_input():
    code, out = run_cli(["validate", "crystal"], json.dumps(_crystal_payload()))
    assert code == 0 and json.loads(out) == {"valid": True}
    text = "s td 1 2 2\nb 1 1 2\n"
    code, out = run_cli(["validate", "decomposition"], json.dumps(_decomposition_payload(text)))
    assert code == 0 and json.loads(out) == {"valid": True}
    payload = json.dumps(_kaleidoscope_payload([4]))
    code, out = run_cli(["validate", "kaleidoscope", "--mirrored", "1"], payload)
    assert code == 2 and json.loads(out)["clause"] == "M3"


def test_gen_density_defaults_to_minimal():
    argv = ["gen", "planted-phantom", "2", "2", "1", "--seed", "3"]
    code, out = run_cli(argv)
    assert code == 0 and run_cli([*argv, "--density", "minimal"]) == (0, out)
    code, out = run_cli([*argv, "--density", "coned"])
    host, p = plant_phantom(complete(2), 2, 1, seed=3, density="coned")
    assert code == 0 and json.loads(out) == {
        "graph": json.loads(dumps_graph(host)),
        "phantom": phantom_to_json_obj(p),
    }


@pytest.mark.parametrize(
    "params",
    [
        ["crystal", "1", "x"],
        ["crystal", "1", "2", "3"],
        ["complete", "3", "9"],
        ["complete"],
        ["wall", "2.5"],
        ["obstruction", "3"],
        ["obstruction", "x", "wall"],
    ],
)
def test_gen_takes_exactly_its_integer_parameters(params, capsys):
    code, out = run_cli(["gen", *params, "--seed", "1"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("invalid input:")


def test_gen_obstruction_takes_a_kind_name():
    code, out = run_cli(["gen", "obstruction", "2", "complete", "--seed", "1"])
    assert code == 0 and loads_graph(out) == complete(3)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "nonsense"],
        ["extract", "nonsense"],
        ["verify", "nonsense"],
        ["tw", "--bogus"],
        [],
        ["detect", "nonsense"],
    ],
)
def test_usage_errors_exit_one(argv):
    assert run_cli(argv)[0] == 1


# run in a fresh interpreter: import obslab.cli, or run it as `python -m
# obslab.cli` with the given arguments, and print at exit which of
# dataclasses and inspect were loaded (no command should load either)
_LOADED_AT_EXIT = """
import runpy, sys
sys.argv = ["obslab"] + sys.argv[1:]
try:
    if len(sys.argv) == 1:
        import obslab.cli
    else:
        runpy.run_module("obslab.cli", run_name="__main__")
finally:
    print(sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [[], ["gen", "wall", "3"], ["verify", "crystallized", "--samples", "1"]])
def test_start_up_loads_neither_dataclasses_nor_inspect(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AT_EXIT, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"
    if argv[:1] == ["gen"]:
        assert loads_graph(proc.stdout).n == 22


def test_help_exits_zero():
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["verify", "--help"])[0] == 0


def test_verify_header_shows_the_seed_the_suite_ran_with(capsys):
    code, out = run_cli(["verify", "class-containment", "--n", "3"])
    assert code == 0 and "seed" not in json.loads(out.splitlines()[0])
    code, out = run_cli(["verify", "class-containment", "--seed", "7"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("invalid input:")
    code, out = run_cli(["verify", "crystallized", "--samples", "2", "--seed", "7"])
    assert code == 0 and json.loads(out.splitlines()[0])["seed"] == 7
    code, out = run_cli(["verify", "crystallized", "--samples", "2"])
    assert code == 0 and json.loads(out.splitlines()[0])["seed"] == 0


@pytest.mark.parametrize(
    "argv",
    [["clique", "--c", "0"], ["biclique", "--s", "0"], ["class-membership", "--t", "0"], ["even-hole", "--guard", "0"]],
)
def test_detect_keeps_an_explicit_zero(argv):
    code, out = run_cli(["detect", *argv], json.dumps(_PATH3))
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "argv,defaults",
    [
        (["detect", "clique"], ["--c", "3", "--guard", "64"]),
        (["detect", "biclique"], ["--s", "2", "--guard", "64"]),
        (["detect", "class-membership"], ["--guard", "64"]),
        (["detect", "even-wheel"], ["--guard", "64"]),
        (["tw"], ["--exact-guard", "22"]),
    ],
)
def test_flag_defaults_are_the_documented_ones(argv, defaults):
    text = dumps_graph(cone(cycle(4)))
    code, out = run_cli(argv, text)
    assert code == 0 and run_cli([*argv, *defaults], text) == (0, out)


_FUZZ_VALUES = (0, -1, 2**70, 10**6, "s", [], [[]], {}, None, True, 1.5)


def _sub_paths(x, path=()):
    """The path to every sub-value of the JSON value x, x itself excluded."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _sub_paths(value, path + (key,))


def test_structure_input_fuzz_exits_cleanly():
    # each mutation replaces one sub-value of a valid payload; whatever it
    # breaks, the command answers with an exit code and raises nothing
    cases = [
        (["validate", "phantom"], _phantom_payload()),
        (["validate", "crystal", "--clear"], _crystal_payload()),
        (["validate", "kaleidoscope", "--mirrored", "1"], _kaleidoscope_payload([4])),
        (["extract", "crystallized-vertex"], {"graph": json.loads(dumps_graph(cone(path_graph(3))))}),
        (["extract", "clear-crystal"], dict(_crystal_payload(), params={"f": 1, "g": 1})),
        (["extract", "phantom-to-crystal"], _phantom_payload(params={"f": 1, "g": 1})),
        (["extract", "phantom-to-cone-tree"], _cone_tree_payload()),
    ]
    rng = random.Random(0)
    for argv, payload in cases:
        assert run_cli(argv, json.dumps(payload))[0] in (0, 2)
        paths = list(_sub_paths(payload))
        for _ in range(50):
            mutated = _changed(payload, rng.choice(_FUZZ_VALUES), *rng.choice(paths))
            try:
                code, _ = run_cli(argv, json.dumps(mutated))
            except Exception as exc:
                pytest.fail(f"{argv} raised {exc!r} on {json.dumps(mutated)}")
            assert code in (0, 1, 2)
