"""Fixed-seed workloads: inputs built from the seed, and the operations run on them.

`build(name, seed, workdir)` returns the workload's operations as a list of
`(op_id, fn)` pairs.  Building them is part of set-up: it generates every
input (and writes the files the CLI operations read) before the first timed
operation.  Each `fn()` runs one operation and returns its output in the
canonical form `{"exact": {...}, "approx": {...}}` that `check.py` compares
with the recorded references.

Inputs depend only on `variant(seed)`, so every seed maps onto one of the
`VARIANTS` input sets whose outputs were recorded in `refs/`.  The named
families (vertical, bush, plane, st-grid, tube pencils) are fixed
constructions; the seed drives the random point sets, random lines, random
configurations, tube-family sampling, shading and annealing.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from heilbronn.cli import main as cli_main
from heilbronn.concentration import plane_reduction_check, uniformize
from heilbronn.configurations import (
    generate_bush,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
    make_config,
    min_config_distance,
)
from heilbronn.formats import write_config, write_points, write_tubes
from heilbronn.geometry import Line
from heilbronn.incidence import (
    double_count_check,
    initial_estimate_check,
    normalized_incidence_many,
    rhs_basic,
)
from heilbronn.search import AnnealSchedule, anneal_max_triangle
from heilbronn.triangles import (
    greedy_close_pairs,
    min_triangle_brute,
    min_triangle_fast,
    triangle_via_pointline,
)
from heilbronn.tubes import (
    Shading,
    Tube2D,
    check_planar_brush,
    check_space_brush,
    generate_katz_tao_tubes,
    measure_kt_constant,
    shading_union_volume,
    two_ends_decompose,
)

VARIANTS = 16


class OutputMismatch(AssertionError):
    """An operation's output broke an invariant that needs no reference."""


def variant(seed: int) -> int:
    return seed % VARIANTS


def _rng(v: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([v, stream])


def _digest(a) -> str:
    arr = np.ascontiguousarray(np.asarray(a, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:24]


def _out(exact=None, approx=None) -> dict:
    return {"exact": exact or {}, "approx": approx or {}}


def _witness(w) -> list:
    return [float(w.area), *map(int, w.indices)]


def _cli_csv(argv: list[str], output: str) -> dict:
    """Run one CLI command and return its CSV bytes (the .log sidecar is volatile)."""
    rc = cli_main(argv + ["-o", output])
    if rc != 0:
        raise OutputMismatch(f"heilbronn {argv[0]} exited with {rc}")
    with open(output, encoding="utf-8") as fh:
        return _out(exact={"csv": fh.read()})


# ---------------------------------------------------------------------------
# input generators (same construction as the acceptance suite's fixtures)


def random_config(n: int, dim: int, rng: np.random.Generator):
    pts = rng.uniform(0, 1, (n, dim))
    lines = [Line(p, rng.normal(size=dim)) for p in pts]
    return make_config(pts, lines)


def separated_config(n: int, dim: int, rng: np.random.Generator, K: int = 8,
                     levels: int = 3, step: int = 5):
    """Points in hierarchically separated cubes, so uniformize can keep most of them."""
    digits = np.arange(0, K, step)
    pts = np.zeros((n, dim))
    for i in range(n):
        for j in range(1, levels + 1):
            pts[i] += rng.choice(digits, size=dim) * float(K) ** -j
        pts[i] += rng.uniform(0, 0.9 * float(K) ** -levels, size=dim)
    lines = [Line(p, rng.normal(size=dim)) for p in pts]
    return make_config(pts, lines)


def random_lines(n: int, dim: int, rng: np.random.Generator) -> list[Line]:
    return [Line(rng.uniform(0, 1, dim), rng.normal(size=dim)) for _ in range(n)]


def pencil(n: int, delta: float) -> list[Tube2D]:
    angles = np.linspace(0, np.pi, n, endpoint=False)
    return [Tube2D([0.5, 0.5], [np.cos(a), np.sin(a)], delta, 1.0) for a in angles]


# ---------------------------------------------------------------------------
# triangles: minimum-area search, close-pair pipeline, annealing


def _triangles(v: int, workdir: str):
    rng = _rng(v, 1)
    p2 = rng.uniform(0, 1, (600, 2))
    p3 = rng.uniform(0, 1, (350, 3))
    oracle_sets = [rng.uniform(0, 1, (int(rng.integers(121, 151)), 2 + i % 2))
                   for i in range(6)]
    pipe = {n: rng.uniform(0, 1, (n, 3)) for n in (512, 1280)}
    pairs_set = rng.uniform(0, 1, (1024, 3))
    pts_min = os.path.join(workdir, "min.pts")
    pts_pipe = os.path.join(workdir, "pipe.pts")
    write_points(pts_min, rng.uniform(0, 1, (200, 3)))
    write_points(pts_pipe, rng.uniform(0, 1, (1024, 3)))

    def oracle():
        fast = [min_triangle_fast(P) for P in oracle_sets]
        brute = [min_triangle_brute(P) for P in oracle_sets]
        for f, b in zip(fast, brute):
            if f.area != b.area:
                raise OutputMismatch(f"fast {f.area!r} != brute {b.area!r}")
        return _out(exact={"fast": [_witness(w) for w in fast],
                           "brute": [_witness(w) for w in brute]})

    def pipeline(n):
        def op():
            w, rep = triangle_via_pointline(pipe[n])
            if w.area > rep.area_bound * (1 + 1e-9):
                raise OutputMismatch("pipeline triangle exceeds its area bound")
            return _out(exact={"witness": _witness(w), "n_pairs": rep.n_pairs,
                               "config_distance": rep.config_distance,
                               "max_pair_length": rep.max_pair_length})
        return op

    def close_pairs():
        pairs, dists = greedy_close_pairs(pairs_set)
        return _out(exact={"pairs": _digest(pairs), "dists": _digest(dists),
                           "count": len(pairs)})

    def anneal():
        sched = AnnealSchedule(moves_per_epoch=200, epochs=5, seed=v)
        P = anneal_max_triangle(12, 2, sched)
        return _out(exact={"points": _digest(P),
                           "min_area": _witness(min_triangle_brute(P))})

    return [
        ("min_fast_2d", lambda: _out(exact={"witness": _witness(min_triangle_fast(p2))})),
        ("min_fast_3d", lambda: _out(exact={"witness": _witness(min_triangle_fast(p3))})),
        ("fast_brute_oracle", oracle),
        ("pipeline_512", pipeline(512)),
        ("pipeline_1280", pipeline(1280)),
        ("close_pairs_1024", close_pairs),
        ("anneal_12_2d", anneal),
        ("cli_min_triangle", lambda: _cli_csv(["min-triangle", "-p", pts_min],
                                              os.path.join(workdir, "min.csv"))),
        ("cli_pair_pipeline", lambda: _cli_csv(["pair-pipeline", "-p", pts_pipe],
                                               os.path.join(workdir, "pipe.csv"))),
    ]


# ---------------------------------------------------------------------------
# highlow: incidence profiles, right-hand sides, fits, uniformization


def _highlow(v: int, workdir: str):
    rng = _rng(v, 2)
    # (op_id, points, lines, delta, dim, whether rhs_basic follows B);
    # plane at 1/16 runs through the CLI below, with rhs_refined
    families = []
    for k in (4, 5):
        d = 2.0 ** -k
        X = generate_vertical(d, 3)
        families.append((f"vertical_d{2**k}", X.points(), X.lines(), d, 3, k == 4))
        pts, lines = generate_bush(d, 3, 2, seed=1)
        families.append((f"bush_d{2**k}", pts, lines, d, 3, k == 4))
    pts, lines = generate_plane_example(2.0 ** -5)
    families.append(("plane_d32", pts, lines, 2.0 ** -5, 3, True))
    pts, lines = generate_bush(2.0 ** -6, 3, 2, seed=1)
    families.append(("bush_d64", pts, lines, 2.0 ** -6, 3, False))
    families.append(("random_200_d32", rng.uniform(0, 1, (200, 3)),
                     random_lines(200, 3, rng), 2.0 ** -5, 3, True))
    pts, lines = generate_st_grid(512)
    families.append(("stgrid_512_d32", pts, lines, 2.0 ** -5, 2, True))

    acc13 = random_config(1000, 3, rng)
    separated = separated_config(300, 3, rng)
    vertical8 = generate_vertical(2.0 ** -3, 3)
    kt_plc = os.path.join(workdir, "kt.plc")
    write_config(kt_plc, vertical8)
    hl_pts = os.path.join(workdir, "hl.pts")
    hl_plc = os.path.join(workdir, "hl.plc")
    pts, lines = generate_plane_example(2.0 ** -4)
    write_points(hl_pts, pts)
    write_config(hl_plc, make_config([ln.base for ln in lines], lines, dim=3))
    shared = {}

    def family(P, L, d, dim, basic):
        def op():
            approx = {"b": normalized_incidence_many([d, 2 * d], P, L, dim)}
            if basic:
                approx["rhs_basic"] = rhs_basic(d, P, L, dim)
            return _out(exact={"n_points": len(P), "n_lines": len(L)}, approx=approx)
        return op

    def plane_reduction():
        rep = plane_reduction_check(vertical8, 2.0 ** -3, 0.0)
        return _out(exact={"measured": [[r.u, r.w, r.measured] for r in rep.rows],
                           "precondition_ok": rep.precondition_ok,
                           "slab_count": rep.slab_count},
                    approx={"ratios": [r.ratio for r in rep.rows],
                            "fitted_constant": rep.fitted_constant})

    def uniformize_op(config, K, delta, key):
        def op():
            sub, cert = uniformize(config, K, delta=delta)
            if not cert.valid:
                raise OutputMismatch("uniformity certificate invalid")
            shared[key] = (sub, cert)
            ratios = sorted([list(s), list(c)] for s, c in cert.ratios.items())
            return _out(exact={"retained": cert.retained, "original": cert.original,
                               "ratios": ratios})
        return op

    def checks():
        sub, cert = shared["separated"]
        dmin = min_config_distance(sub)
        rows = []
        for w in cert.scales:
            if w <= dmin:
                continue
            ie = initial_estimate_check(sub, w)
            dc = double_count_check(sub, w)
            rows.append([w, ie.lhs, ie.rhs, dc.lhs, dc.rhs])
        if not rows:
            raise OutputMismatch("no certificate scale above the minimal distance")
        return _out(approx={"rows": rows})

    ops = [(op_id, family(P, L, d, dim, basic)) for op_id, P, L, d, dim, basic in families]
    ops += [
        ("cli_katz_tao_vertical_d8",
         lambda: _cli_csv(["katz-tao", "-p", kt_plc, "--delta", "0.125"],
                          os.path.join(workdir, "kt.csv"))),
        ("plane_reduction_vertical_d8", plane_reduction),
        ("uniformize_random_1000", uniformize_op(acc13, 4.0, 2.0 ** -6, "acc13")),
        ("uniformize_separated_300", uniformize_op(separated, 8.0, 8.0 ** -3, "separated")),
        ("estimate_checks_separated", checks),
        ("cli_highlow_refined_plane_d16",
         lambda: _cli_csv(["highlow-check", "-p", hl_pts, "-l", hl_plc,
                           "--delta", "0.0625", "--variant", "refined"],
                          os.path.join(workdir, "hl.csv"))),
    ]
    return ops


# ---------------------------------------------------------------------------
# tubes: tube families, brush checks, two-ends excision


def _tubes(v: int, workdir: str):
    rng = _rng(v, 3)
    gen_seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
    exact_tubes = os.path.join(workdir, "pencil.tubes")
    write_tubes(exact_tubes, pencil(48, 2.0 ** -6))
    approx_pencil = pencil(250, 2.0 ** -8)
    fams, kt_constants = {}, {}

    def generate(dim, delta, count, seed):
        def op():
            tubes, complete = generate_katz_tao_tubes(delta, 1.0, 1.0, count, seed=seed,
                                                      dim=dim)
            fams[dim] = tubes
            return _out(exact={"count": len(tubes), "complete": complete,
                               "centers": _digest([t.center for t in tubes]),
                               "dirs": _digest([t.dir for t in tubes])})
        return op

    def kt(dim):
        def op():
            tubes = fams[dim]
            delta = max(t.width for t in tubes)
            t2 = 1.0 if dim == 3 else None
            kt_constants[dim] = measure_kt_constant(tubes, delta, 1.0, t2) * 1.01
            return _out(approx={"K": kt_constants[dim]})
        return op

    def brush(dim):
        def op():
            tubes = fams[dim]
            K = kt_constants[dim]
            if dim == 2:
                rep = check_planar_brush(tubes, Shading.full(tubes), 1.0, K, eps=0.1)
            else:
                shading = Shading.random_fraction(tubes, 0.5, seed=gen_seeds[2])
                rep = check_space_brush(tubes, shading, 1.0, 1.0, K, eps=0.1)
            res = max(t.width for t in tubes) / 4.0
            return _out(exact={"union_cells": round(rep.measured_volume / res**dim)},
                        approx={"bound": rep.bound, "constant_needed": rep.constant_needed})
        return op

    def union_volume():
        tubes = fams[3]
        res = max(t.width for t in tubes) / 6.0
        vol = shading_union_volume(tubes, Shading.full(tubes), res)
        return _out(exact={"union_cells": round(vol / res**3)})

    def two_ends_approx():
        res = two_ends_decompose(approx_pencil, 2.0 ** -8, 0.125, rich_constant=0.05)
        return _out(exact={"rounds": res.rounds_run, "excisions": len(res.tubes_out),
                           "max_selection": res.max_selection,
                           "overlap_measured": res.overlap_measured,
                           "overlap_upper": res.overlap_upper,
                           "exact_net": res.exact_net, "n_tubes": res.n_tubes},
                    approx={"rich_threshold": res.rich_threshold})

    return [
        ("generate_2d_d32", generate(2, 2.0 ** -5, 20, gen_seeds[0])),
        ("generate_3d_d16", generate(3, 2.0 ** -4, 20, gen_seeds[1])),
        ("kt_constant_2d", kt(2)),
        ("kt_constant_3d", kt(3)),
        ("planar_brush_full", brush(2)),
        ("space_brush_half", brush(3)),
        ("union_volume_3d_full", union_volume),
        ("cli_two_ends_exact_net",
         lambda: _cli_csv(["two-ends", "-t", exact_tubes, "--delta", str(2.0 ** -6),
                           "--span", "0.25", "--rich-constant", "0.1"],
                          os.path.join(workdir, "te.csv"))),
        ("two_ends_approx_net", two_ends_approx),
    ]


_BUILDERS = {"triangles": _triangles, "highlow": _highlow, "tubes": _tubes}


def build(name: str, seed: int, workdir: str):
    """Inputs and operations of workload `name` for `seed` (set-up work)."""
    return _BUILDERS[name](variant(seed), workdir)
