"""Print every benchmark metric of every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [workload ...]

For each workload this runs `run.py --trace 0` (end-to-end metrics) and
`run.py --trace 1` (per-layer metrics and trace.overhead_frac), one after
the other, and prints each metric with its unit and sample count, the
failure fraction, and the host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()

    host = None
    for name in args.workloads:
        for trace in (0, 1):
            info, result = run(name, args.seed, args.seconds, trace)
            host = info["host"]
            samples = info["samples"]["traced" if trace else "untraced"]
            kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
            print(f"\n{name} seed={args.seed} {kind}: attempted={result['attempted']} "
                  f"failed={result['failed']} fail_frac={info['fail_frac']:.4g} "
                  f"correct={result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']:6s} n={samples}")
    print("\nhost: " + json.dumps(host, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
