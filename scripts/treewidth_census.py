#!/usr/bin/env python3
"""Tabulate sizes and exact treewidths across the obstruction families, and
show the wall calibration that fixes the parameter convention.

Usage: python scripts/treewidth_census.py [--t-max 4]
"""

import argparse
import time

from obslab.generators import _brick_wall, complete, complete_bipartite, wall
from obslab.treewidth import DEFAULT_EXACT_GUARD, treewidth_exact, tw_lower, tw_upper


def row(label, g, guard=DEFAULT_EXACT_GUARD):
    t0 = time.perf_counter()
    if g.n <= guard:
        w, _ = treewidth_exact(g, guard=guard)
        shown = str(w)
    else:
        shown = f"[{tw_lower(g)}, {tw_upper(g)[0]}]"
    print(f"{label:24s} n={g.n:4d} m={g.m:4d} tw={shown:8s} {time.perf_counter() - t0:6.2f}s")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-max", type=int, default=4)
    args = ap.parse_args()
    print("= raw brick family (h rows, h columns of bricks)")
    for h in (1, 2):
        row(f"brick({h},{h})", _brick_wall(h, h))
    print("= calibrated walls (treewidth equals the parameter for t >= 2; wall(1) is C6)")
    for t in range(1, args.t_max + 1):
        row(f"wall({t})", wall(t))
    print("= dense obstructions")
    for t in range(1, args.t_max + 1):
        row(f"K_{t + 1}", complete(t + 1))
        row(f"K_{t},{t}", complete_bipartite(t, t))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
