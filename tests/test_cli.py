import io
import json
import sys

import pytest

from obslab import cli
from obslab.generators import complete, cone, path_graph, plant_crystal, plant_phantom
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


def test_detect_membership():
    _, g = run_cli(["gen", "cycle", "7"])
    code, out = run_cli(["detect", "class-membership", "--t", "3"], g)
    assert json.loads(out)["member"] is True


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


def test_extract_cone_tree():
    host, p = plant_phantom(complete(3), 2, 1, density="coned")
    payload = json.dumps(
        {
            "graph": json.loads(dumps_graph(host)),
            "phantom": phantom_to_json_obj(p),
            "context": [0, 1, 2],
            "params": {"z1": 0, "z2": 1, "z": 2, "d": 1, "g": 1, "h": 3, "t": 4},
        }
    )
    code, out = run_cli(["extract", "phantom-to-cone-tree"], payload)
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


def test_scan_conjecture_missing_pattern(tmp_path):
    code, out = run_cli(["scan-conjecture", str(tmp_path / "absent.json"), "--t", "4", "--n", "4"])
    assert code == 1 and out == ""


@pytest.mark.parametrize("kind", ["phantom", "crystal", "kaleidoscope", "decomposition"])
def test_validate_missing_member(kind):
    payload = json.dumps({"graph": json.loads(dumps_graph(complete(3)))})
    code, out = run_cli(["validate", kind], payload)
    assert code == 1 and out == ""
