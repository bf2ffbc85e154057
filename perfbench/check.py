"""Output check against references recorded with `record.py`.

An operation's output is `{"exact": {...}, "approx": {...}}`.  Exact values
(triangle areas and witnesses, greedy pairs, covering and box counts, union
cell counts, two-ends certificate integers, CLI CSV bytes) must equal the
reference.  Approximate values (floating-point sums such as B(w), right-hand
sides, fitted constants) must agree within `RTOL`.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-9
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def ref_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json")


def load_refs(workload: str, variant: int) -> dict:
    """Recorded outputs of every operation of `workload` for one input variant."""
    with open(ref_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["variants"][str(variant)]


def canonical(output: dict) -> dict:
    """The output as it reads back from JSON (tuples become lists, and so on)."""
    return json.loads(json.dumps(output))


def _close(got, want, path: str, problems: list[str]) -> None:
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]", problems)
        return
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        if got != want:
            problems.append(f"{path}: {got!r} != {want!r}")
        return
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        problems.append(f"{path}: {got!r} is not a number")
        return
    if math.isinf(want) or math.isinf(got):
        ok = got == want
    else:
        ok = abs(got - want) <= RTOL * max(abs(got), abs(want))
    if not ok:
        problems.append(f"{path}: {got!r} differs from {want!r} by more than rtol {RTOL}")


def compare(got: dict, want: dict) -> list[str]:
    """Differences between an operation's output and its reference (empty when equal)."""
    got = canonical(got)
    problems = []
    for kind in ("exact", "approx"):
        g, w = got.get(kind, {}), want.get(kind, {})
        for key in sorted(set(g) | set(w)):
            if key not in g or key not in w:
                problems.append(f"{kind}.{key}: present on one side only")
            elif kind == "exact":
                if g[key] != w[key]:
                    problems.append(f"exact.{key}: {g[key]!r} != {w[key]!r}")
            else:
                _close(g[key], w[key], f"approx.{key}", problems)
    return problems
