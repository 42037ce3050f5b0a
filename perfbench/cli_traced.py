"""Run one `obslab` command with span tracing.

    python3 perfbench/cli_traced.py <prefix> <obslab arguments...>

Imports `obslab.cli` (timing the import), wraps the package, runs
`obslab.cli.main` and exits with its code.  At exit the spans go to
`<prefix>.spans` and the per-function aggregate to `<prefix>.json`.
"""

import json
import sys
import time


def run() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import obslab.cli

    import_s = time.perf_counter() - t0
    import tracer

    trace = tracer.install()
    try:
        code = obslab.cli.main(argv)
    finally:
        summary = trace.finish(prefix + ".spans")
        summary["import_s"] = import_s
        with open(prefix + ".json", "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
