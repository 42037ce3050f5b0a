#!/usr/bin/env python3
"""Bounded counterexample probe: observe the maximum exact treewidth among
small graphs excluding an even hole, a chosen 2-forest and a clique.

Never conclusive; it only records what the desk-scale corpus shows.  The scan
is the one `obslab scan-conjecture` runs, with the diamond as the pattern.

Usage: python scripts/conjecture_probe.py [--t 4] [--n 8] [--samples 100]
"""

import argparse

from obslab.generators import cone, path_graph
from obslab.suites import scan_conjecture


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=int, default=4)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    pattern = cone(path_graph(3))  # the diamond, the smallest coned path
    checked, best, records = scan_conjecture(pattern, args.t, args.n, args.samples, args.seed)
    edges = tuple(map(tuple, records[-1]["edges"])) if records else None
    print(f"checked {checked} (even-hole, diamond, K_{args.t})-free graphs up to n={args.n}")
    print(f"max exact treewidth observed: {best} at edges {edges}")
    print("this scan is a probe, not evidence either way")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
