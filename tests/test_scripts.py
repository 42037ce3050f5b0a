import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_conjecture_probe_smoke():
    first = _run_script("conjecture_probe.py", "--n", "5")[0]
    assert first == "checked 33 (even-hole, diamond, K_4)-free graphs up to n=5"


def test_treewidth_census_smoke():
    lines = _run_script("treewidth_census.py", "--t-max", "2")
    widths = {line.split()[0]: line.split()[-2] for line in lines if not line.startswith("=")}
    assert widths["brick(2,2)"] == "tw=3"
    assert widths["wall(1)"] == "tw=2" and widths["wall(2)"] == "tw=2"
    assert widths["K_3"] == "tw=2" and widths["K_2,2"] == "tw=2"


def test_run_verification_fast_smoke():
    lines = _run_script("run_verification.py", "--fast")
    assert len(lines) == 6
    assert all(line.split()[3] == "ok" for line in lines), lines
