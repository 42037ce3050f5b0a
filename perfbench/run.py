"""obslab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  With `--trace 0` the end-to-end
metrics of BENCHMARK.json are printed, with `--trace 1` the per-layer ones;
README.md in this directory defines each metric and workload.  Lines
starting with `#` are for people; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record of a run, with its deterministic counters, goes to
`.perfbench-runs/<workload>-seed<seed>-trace<t>.json`.  Exit code 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench-runs")

WORKLOADS = ("witness-search", "absence-certify", "census", "cli-session")
MIN_PASSES = 2
SETUP_PROBES = 3  # set-up-only interpreters before each plain pass
WORKER_TIMEOUT = 90


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop; shows host speed drift."""
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, spans_dir: str, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, spans_dir]
    t0 = time.monotonic()
    # a session of its own, so a timeout also ends the worker's obslab children
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{mode} worker did not finish within {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RunError(f"{mode} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def run_workload(workload: str, seed: int, seconds: int, traced: bool, env: dict) -> dict:
    spans_dir = os.path.join(OUT_DIR, "spans", f"{workload}-seed{seed}")
    os.makedirs(spans_dir, exist_ok=True)
    ref_start = reference_loop()
    # one untimed set-up writes the bytecode caches and warms the file cache
    spawn(workload, seed, "setup", spans_dir, env)
    setups = []
    start = time.monotonic()
    plain, tr = [], []
    longest = 0.0
    while True:
        n_done = len(plain) + len(tr)
        need_more = len(plain) < MIN_PASSES if not traced else not (plain and tr)
        if not need_more and time.monotonic() + longest > start + seconds:
            break
        t0 = time.monotonic()
        if not traced:
            # set-up probes spread over the run, not bunched at its start
            setups += [spawn(workload, seed, "setup", spans_dir, env)["setup_s"] for _ in range(SETUP_PROBES)]
        mode = "traced" if traced and n_done % 2 == 1 else "plain"
        if mode == "traced":
            shutil.rmtree(spans_dir)
            os.makedirs(spans_dir)
        (tr if mode == "traced" else plain).append(spawn(workload, seed, mode, spans_dir, env))
        longest = max(longest, time.monotonic() - t0)
    passes = plain + tr
    setups += [p["setup_s"] for p in plain]
    ref_end = reference_loop()

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if not op[2])
    digests = sorted({p["digest"] for p in passes})
    problems = [] if len(digests) == 1 else ["passes disagree on the output digest"]
    # one latency per operation of the pass: the fastest of its plain runs,
    # since interference from the host can only add time to an operation
    per_op = [(op[0], min(p["ops"][i][1] for p in plain)) for i, op in enumerate(plain[0]["ops"])]
    latencies = sorted(lat for _, lat in per_op)
    tail_pct = 100 * (1 - 10 / len(latencies))
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "reference_loop_s": {"start": ref_start, "end": ref_end},
        "passes": {"plain": len(plain), "traced": len(tr)},
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "counters": {"digest": digests[0], "records": passes[0]["records"]},
        "op_fastest_ms": [[label, 1000 * lat] for label, lat in per_op],
        "setup_samples_s": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_tail_percentile": tail_pct,
        "problems": problems,
        "values": {
            "setup_s": statistics.median(setups) if setups else None,
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * nearest_rank(latencies, tail_pct),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "failed_share": failed / attempted,
        },
    }
    if traced:
        layer, counts = per_layer(tr)
        layer["trace.overhead_s"] = statistics.median(p["wall_s"] for p in tr) - report["values"]["wall_s"]
        report["layer"] = layer
        report["counters"]["calls"] = counts
        if any(per_layer([p])[1] != counts for p in tr[1:]):
            problems.append("traced passes disagree on call counts")
    return report


def per_layer(traced_passes: list[dict]) -> tuple[dict, dict]:
    """Per-function stats of traced passes: counts of the first pass, median
    self times, sandwich ratio and import times."""
    merged = []
    imports = []
    for p in traced_passes:
        funcs: dict[str, dict] = {}
        fired = base = 0
        imports.append(p["import_s"])
        for part in p["trace"]:
            for name, st in part["functions"].items():
                acc = funcs.setdefault(name, {"calls": 0, "failed": 0, "found": 0, "self_s": 0.0})
                for key in acc:
                    acc[key] += st[key]
            fired += part["sandwich"][0]
            base += part["sandwich"][1]
            if "import_s" in part:
                imports.append(part["import_s"])
        merged.append((funcs, fired, base))
    funcs, fired, base = merged[0]
    counts = {name: [st["calls"], st["failed"], st["found"]] for name, st in sorted(funcs.items())}
    counts["treewidth.sandwich"] = [fired, base]
    layer = {}
    names = set().union(*(m[0] for m in merged))
    for name in sorted(names):
        for key in ("calls", "failed", "found"):
            layer[f"{name}.{key}"] = funcs.get(name, {}).get(key, 0)
        layer[f"{name}.self_s"] = statistics.median(m[0].get(name, {}).get("self_s", 0.0) for m in merged)
    layer["treewidth.sandwich_ratio"] = fired / base if base else 0.0
    layer["treewidth.sandwich_base"] = base
    layer["cli.import_s"] = statistics.median(imports)
    return layer, counts


def emit(reports: list[dict], spec: dict, traced: bool) -> int:
    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    correct = True
    for rep in reports:
        values = rep["layer"] if traced else rep["values"]
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        v = rep["values"]
        print(
            f"# {rep['workload']} seed={rep['seed']} trace={rep['trace']} python={rep['python']}"
            f" cpus={rep['cpus']} passes={rep['passes']}"
            f" reference_loop_s={rep['reference_loop_s']['start']:.4f}->{rep['reference_loop_s']['end']:.4f}"
        )
        print(
            f"#   not gated: failed_share {v['failed_share']:.6g} ({rep['failed']}/{rep['attempted']})"
            f"  op_p50_ms {v['op_p50_ms']:.6g}  op_tail_ms {v['op_tail_ms']:.6g}"
            f" (p{rep['op_tail_percentile']:.2f} of {len(rep['op_fastest_ms'])} operations,"
            f" each the fastest of {rep['passes']['plain']} passes)"
        )
        for m in spec[section]:
            # a function the workload never reaches reports 0
            value = values.get(m["name"], 0)
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            if value is None:
                correct = False
            print(f"#   {m['name']} {value} {m['unit']}")
        counters = dict(rep["counters"])
        if len(counters["records"]) > 40:
            counters["records"] = f"{len(counters['records'])} records, see the run record"
        print(f"#   counters {json.dumps(counters, sort_keys=True)}")
        for f in rep["failures"]:
            print(f"#   FAILED {json.dumps(f)}")
        for prob in rep["problems"]:
            print(f"#   PROBLEM {prob}")
        correct = correct and rep["failed"] == 0 and not rep["problems"]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "obslab", "cli.py")):
        print("run from the root of an obslab source checkout (src/obslab not found)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    # installed packages come with bytecode; let the untimed warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            rep = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
            with open(os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
                json.dump(rep, fh, indent=1, sort_keys=True)
            reports.append(rep)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    return emit(reports, spec, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
