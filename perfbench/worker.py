"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <mode> <spans_dir>

`mode` is `setup` (set up, report, exit), `plain` (a timed pass) or `traced`
(a pass with every obslab function wrapped, see tracer.py).  The package's
module caches start cold, as they do for a command-line user.

Prints one JSON line: the monotonic time at which set-up ended (the parent
took the time before it started this interpreter), the import time of
`obslab.cli`, every operation's latency and verdict, the pass wall time, a
digest of all outputs, peak resident memory and, when traced, the
per-function aggregate.
"""

import hashlib
import json
import os
import resource
import sys
import time


def main() -> int:
    workload, seed, mode, spans_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    t0 = time.perf_counter()
    import obslab.cli  # noqa: F401 - every user of the program pays this import
    from obslab.errors import ScaleLimit

    import_s = time.perf_counter() - t0
    trace = None
    if mode == "traced":
        import tracer

        os.makedirs(spans_dir, exist_ok=True)
        trace = tracer.install()
    import workloads

    setup = workloads.WORKLOADS[workload]
    if workload == "cli-session":
        ops = setup(seed, spans_dir if trace else None)
    else:
        ops = setup(seed)
    ready = time.monotonic()
    out = {"ready": ready, "import_s": import_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    results = []
    perf = time.perf_counter
    start = perf()
    for label, op in ops:
        t = perf()
        try:
            ok, record = op()
        except ScaleLimit as exc:
            ok, record = False, ["ScaleLimit", str(exc)]
        except Exception as exc:  # a crash in one operation fails that operation
            ok, record = False, [type(exc).__name__, str(exc)]
        results.append((label, perf() - t, bool(ok), record))
    wall = perf() - start

    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    out.update(
        wall_s=wall,
        ops=[[label, lat, ok] for label, lat, ok, _ in results],
        failures=[[label, record] for label, _, ok, record in results if not ok],
        digest=hashlib.sha256(
            json.dumps([[label, record] for label, _, _, record in results]).encode()
        ).hexdigest(),
        records={f"{i:02d} {r[0]}": r[3] for i, r in enumerate(results) if _small(r[3])},
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
    )
    if trace is not None:
        prefix = os.path.join(spans_dir, "worker")
        out["trace"] = [trace.finish(prefix + ".spans")]
        # spans of the traced command-line calls, one file pair per call
        for name in sorted(os.listdir(spans_dir)):
            if name.startswith("cli-") and name.endswith(".json"):
                with open(os.path.join(spans_dir, name)) as fh:
                    out["trace"].append(json.load(fh))
    print(json.dumps(out))
    return 0


def _small(record) -> bool:
    """Counts and widths are kept verbatim next to the digest."""
    return isinstance(record, (int, bool)) or (
        isinstance(record, list) and all(isinstance(x, int) for x in record)
    )


if __name__ == "__main__":
    sys.exit(main())
