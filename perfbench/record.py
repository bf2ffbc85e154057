"""Record the reference outputs in refs/ from the code as it is now.

    python3 perfbench/record.py [workload ...]

Runs one pass per input variant of each workload (fresh process each) and
writes `refs/<workload>.json`.  Only re-record when a change is meant to
alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from check import REFS_DIR, RTOL, ref_path
from run import HERE, OUT, ROOT, WORKLOADS

sys.path.insert(0, os.path.join(ROOT, "src"))
from workloads import VARIANTS  # noqa: E402


def record(workload: str) -> None:
    variants = {}
    for v in range(VARIANTS):
        workdir = os.path.join(OUT, f"record-{os.getpid()}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
             "--seed", str(v), "--workdir", workdir, "--record",
             "--spawned-at", repr(time.monotonic())],
            cwd=ROOT, capture_output=True, text=True, check=True)
        variants[str(v)] = json.loads(proc.stdout.strip().splitlines()[-1])["outputs"]
        print(f"{workload} variant {v}: {len(variants[str(v)])} outputs", flush=True)
    os.makedirs(REFS_DIR, exist_ok=True)
    with open(ref_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"rtol": RTOL, "variants": variants}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
