#!/usr/bin/env python3
"""Run every named verification suite and print a one-line summary each.

Each suite runs at its own defaults, with the given seed where it takes one;
--fast lowers the sample counts.

Usage: python scripts/run_verification.py [--seed N] [--fast]
"""

import argparse
import inspect
import time

from obslab.suites import SUITES

FAST = {
    "obstructions": {"samples": 2},
    "class-containment": {"n_max": 6},
    "contraption": {"samples": 50},
    "crystallized": {"samples": 50},
    "extractors": {"samples": 30},
    "ramsey": {"samples": 100},
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fast", action="store_true", help="smaller sample counts")
    args = ap.parse_args()
    all_ok = True
    for name in sorted(SUITES):
        suite = SUITES[name]
        knobs = dict(FAST[name]) if args.fast else {}
        if "seed" in inspect.signature(suite).parameters:
            knobs["seed"] = args.seed
        t0 = time.perf_counter()
        records = suite(**knobs)
        bad = [r for r in records if not r["ok"]]
        all_ok = all_ok and not bad
        status = "ok" if not bad else f"{len(bad)} FAILURES"
        print(f"{name:20s} {len(records):4d} instances  {status:12s} {time.perf_counter() - t0:6.1f}s")
        for r in bad[:5]:
            print(f"  failed: {r}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
