"""Benchmark entry point: fixed-seed passes of one workload, one JSON result line.

    python3 perfbench/run.py --workload {triangles,highlow,tubes} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each pass runs in its own fresh process
(`passrun.py`), one at a time, importing `heilbronn` from `src/`; passes
start until `--seconds` have elapsed.  The benchmark starts no threads and
changes no machine or environment setting; the BLAS/OpenMP thread variables
are recorded as found.

`--trace 0` reports the end-to-end metrics over untraced passes: medians of
`wall_s`, `setup_s` (both scaled to the reference host speed, see
`calibrate.py`) and `peak_rss_mb`; the raw medians go on the line before
the result.  `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of the traced passes
(medians) plus `trace.overhead_frac`.  Every operation's output is checked
against `refs/`; `failed / attempted` is the failure fraction.  Host facts
and sample counts go on the line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from calibrate import spin  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("triangles", "highlow", "tubes")
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HEILBRONN_THREADS")


class PassError(RuntimeError):
    """A pass process crashed or printed no result."""


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")]
    try:
        parent_spin = spin()[0]
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--parent-spin", repr(parent_spin),
                                     "--spawned-at", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu": None, "python": platform.python_version(),
             "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for mod in ("numpy", "scipy"):
        try:
            facts[mod] = __import__(mod).__version__
        except ImportError:
            facts[mod] = None
    facts["commit"] = git_commit()
    return facts


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "heilbronn", "__init__.py")):
        print(f"no heilbronn sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    plain, traced = [], []
    start = time.monotonic()
    try:
        while True:
            want_trace = bool(args.trace) and len(traced) < len(plain)
            (traced if want_trace else plain).append(
                run_pass(args.workload, args.seed, want_trace))
            done = time.monotonic() - start >= args.seconds
            if done and (not args.trace or traced):
                break
    except (PassError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for op_id, why in p["failures"].items():
            print(f"FAILED {args.workload}/{op_id}: {why}", file=sys.stderr)

    def median(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        metrics = {name: {"value": statistics.median(t["layers"][name] for t in traced),
                          "unit": LAYER_METRICS[name][0]}
                   for name in LAYER_METRICS if name != "trace.overhead_frac"}
        overhead = median("wall_s", traced) / median("wall_s") - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {"wall_s": {"value": median("wall_s"), "unit": "s"},
                   "setup_s": {"value": median("setup_s"), "unit": "s"},
                   "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"}}
    print(json.dumps({"host": host_facts(), "workload": args.workload, "seed": args.seed,
                      "samples": {"untraced": len(plain), "traced": len(traced)},
                      "raw": {key: median(key) for key in
                              ("wall_raw_s", "setup_raw_s", "spin_s", "spin_cpu_share")},
                      "fail_frac": failed / attempted}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
