"""One pass of a workload in a fresh process; prints one JSON line.

    python3 perfbench/passrun.py --workload W --seed S --spawned-at T
        [--parent-spin C] [--trace] [--record] --workdir DIR

`--spawned-at` is the parent's `time.monotonic()` just before it started
this process, so the set-up time covers interpreter start, `import
heilbronn`, the cold `bump_profile(2)` and `bump_profile(3)` builds and
building the inputs.  The operation time is that of the operations alone;
the output check runs after it.  Both are reported raw (`*_raw_s`) and
scaled to the reference host speed (`setup_s`, `wall_s`; see
`calibrate.py`): a spin runs between the steps of set-up and after every
operation, outside the timed segments, and each segment is scaled by the
spins near it.  The first segment (interpreter start) starts
at the parent's spin, `--parent-spin`, taken just before the spawn.
`--trace` installs the spans of `tracing.py` before set-up, reports
per-layer metrics, and afterwards re-runs the operations that need a
`tracemalloc` peak.  `--record` prints the outputs for `refs/` instead of
checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from calibrate import Laps

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    """Import heilbronn from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import heilbronn
    if os.path.dirname(os.path.dirname(os.path.abspath(heilbronn.__file__))) != SRC:
        raise ImportError(f"heilbronn imported from {heilbronn.__file__}, not {SRC}")
    return heilbronn


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--parent-spin", type=float)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    laps = Laps(args.spawned_at, args.parent_spin)
    laps.lap()
    _import_package()
    laps.lap()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from heilbronn.kernels import bump_profile
    import workloads
    from check import compare, load_refs

    bump_profile(2)
    bump_profile(3)
    laps.lap()
    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.workdir)
    laps.lap()
    n_setup = len(laps.raw)

    outputs, errors = {}, {}
    for op_id, fn in ops:
        if tracer is not None:
            tracer.op_id = op_id
        try:
            outputs[op_id] = fn()
        except Exception:  # a failed operation is counted, the pass goes on
            errors[op_id] = traceback.format_exc(limit=3)
        laps.lap()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.measuring_memory = True
        for op_id, fn in ops:
            if op_id in tracer.memory_ops and op_id not in errors:
                try:
                    fn()
                except Exception:  # same rule as above: the operation failed
                    errors[op_id] = traceback.format_exc(limit=3)

    if args.record:
        if errors:
            sys.stderr.write("".join(errors.values()))
            return 1
        print(json.dumps({"outputs": outputs}))
        return 0

    refs = load_refs(args.workload, workloads.variant(args.seed))
    failures = dict(errors)
    for op_id, out in outputs.items():
        problems = compare(out, refs[op_id]) if op_id in refs else ["no reference"]
        if problems:
            failures[op_id] = "; ".join(problems)[:2000]
    spin_wall = [w for w, _ in laps.spins]
    scaled = laps.scaled()
    result = {"setup_s": sum(scaled[:n_setup]), "wall_s": sum(scaled[n_setup:]),
              "setup_raw_s": sum(laps.raw[:n_setup]), "wall_raw_s": sum(laps.raw[n_setup:]),
              "spin_s": statistics.median(spin_wall),
              "spin_cpu_share": sum(c for _, c in laps.spins) / sum(spin_wall),
              "peak_rss_mb": peak_rss_mb, "attempted": len(ops),
              "failed": len(failures), "failures": failures}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
