#!/usr/bin/env python3
"""Scaling sweeps: pipeline triangle area vs n, and construction counts vs
delta, each written by `heilbronn exponent` as a CSV table (with its `.log`).

Usage: python scripts/exponent_sweep.py [outdir]
"""

import sys
from pathlib import Path

from heilbronn import cli

# (family, rungs, seeds, dim)
SWEEPS = [
    ("vertical_count", [2.0**-k for k in range(3, 8)], 1, 3),
    ("pipeline_area", [2**e for e in range(6, 12)], 5, 3),
    ("anneal_distance", [8, 16, 32, 64], 3, 2),
]


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    outdir.mkdir(exist_ok=True)
    for family, rungs, seeds, dim in SWEEPS:
        path = outdir / f"{family}.csv"
        rc = cli.main(["exponent", "--family", family, "--rungs", ",".join(map(repr, rungs)),
                       "--seeds", str(seeds), "--dim", str(dim), "-o", str(path)])
        if rc != 0:
            return rc
        print(f"{family} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
