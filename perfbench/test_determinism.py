"""Two traced passes with the same seed give identical deterministic counters:
the output digest, the per-operation records (class counts, widths, k-tree
counts, chordality), every traced function's calls / failed / found and the
treewidth bound-sandwich tally.

    python3 -m pytest perfbench/test_determinism.py   # from the checkout root
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, per_layer  # noqa: E402


def traced_pass(workload: str, seed: int, spans_dir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "traced", spans_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not out["failures"], out["failures"]
    return {"digest": out["digest"], "records": out["records"], "calls": per_layer([out])[1]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counters(workload, tmp_path):
    first = traced_pass(workload, 7, str(tmp_path / "a"))
    second = traced_pass(workload, 7, str(tmp_path / "b"))
    assert first == second
    assert len(first["calls"]) > 1, "the traced pass recorded no calls"
