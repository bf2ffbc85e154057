"""Command-line harness: generation, validation, statistics and experiments.

Every command assembles a manifest (command name, parameters, seed), hashes
it, runs the underlying library operation, writes its primary output as CSV
(or a data file for `gen`), and appends a run log carrying the library
version, the manifest hash and the wall time.  Primary outputs are
deterministic: replaying a manifest reproduces them byte for byte; volatile
data stays in the log.

Exit codes: 0 success, 2 usage error, 3 validation failure, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .concentration import (
    HypothesisViolation,
    katz_tao_fit,
    m_config,
    m_lines,
    m_points,
    plane_reduction_check,
    uniformize,
)
from .configurations import (
    EmptyConfigurationError,
    UndefinedInputError,
    _check_members,
    generate_bush,
    generate_erdos_parabola,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
    make_config,
    min_config_distance,
)
from .formats import (
    FormatError,
    read_config,
    read_points,
    read_tubes,
    validate_file,
    write_config,
    write_points,
    write_tubes,
)
from .incidence import (
    double_count_check,
    dyadic_scan,
    initial_estimate_check,
    normalized_incidence,
    rhs_basic,
    rhs_direction_capped,
    rhs_refined,
    rhs_wellspaced,
)
from .search import AnnealSchedule, anneal_max_distance, anneal_max_triangle, \
    exponent_estimate, measure_family
from .triangles import min_triangle_brute, min_triangle_fast, triangle_via_pointline
from .tubes import Shading, _tube_arrays, check_planar_brush, check_space_brush, \
    generate_katz_tao_tubes, measure_kt_constant, two_ends_decompose

EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


@dataclass(frozen=True)
class ExperimentManifest:
    """What a command ran with: name, parameter map, seed, output path."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output: str | None = None

    def digest(self) -> str:
        blob = json.dumps({"command": self.command, "params": self.params,
                           "seed": self.seed}, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_json(self) -> str:
        return json.dumps({"command": self.command, "params": self.params,
                           "seed": self.seed, "output": self.output},
                          sort_keys=True)


def _manifest(args: argparse.Namespace) -> ExperimentManifest:
    params = {k: str(v) for k, v in sorted(vars(args).items())
              if k not in ("func", "command", "seed", "output") and v is not None}
    return ExperimentManifest(command=args.command, params=params,
                              seed=int(getattr(args, "seed", 0) or 0),
                              output=getattr(args, "output", None))


def _write_log(out_path: str, manifest: ExperimentManifest, started: float) -> None:
    log_path = out_path + ".log"
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write(f"version: {__version__}\n")
        fh.write(f"manifest_hash: {manifest.digest()}\n")
        fh.write(f"manifest: {manifest.to_json()}\n")
        fh.write(f"wall_time_s: {time.time() - started:.3f}\n")


def _write_csv(path: str, comments: list[str], header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(header + "\n")
        for r in rows:
            fh.write(r + "\n")


def _load_lines(path: str):
    cfg = read_config(path)
    return cfg, cfg.lines()


def _nonempty(items, path: str):
    if not items:
        raise EmptyConfigurationError(f"{path}: no entries")
    return items


def _enough_points(P: np.ndarray, need: int, path: str, command: str) -> np.ndarray:
    if P.shape[0] < need:
        raise UndefinedInputError(f"{path}: {P.shape[0]} points, {command} needs at least {need}")
    return P


# ---------------------------------------------------------------------------
# command handlers


def _cmd_gen(args) -> int:
    kind = args.family
    if kind == "vertical":
        cfg = generate_vertical(args.delta, args.dim)
        write_config(args.output, cfg)
    elif kind == "bush":
        _, lines = generate_bush(args.delta, args.dim, args.bushes, args.seed)
        bases = np.array([ln.base for ln in lines])
        cfg = make_config(bases, lines, dim=args.dim)
        write_config(args.output, cfg)
    elif kind == "plane":
        pts, lines = generate_plane_example(args.delta)
        bases = np.array([ln.base for ln in lines])
        cfg = make_config(bases, lines, dim=3)
        write_config(args.output, cfg)
    elif kind == "st-grid":
        pts, lines = generate_st_grid(args.count)
        bases = np.array([np.clip(ln.base, 0, 1) for ln in lines])
        cfg = make_config([ln.project(b) for ln, b in zip(lines, bases)], lines, dim=2)
        write_config(args.output, cfg)
        write_points(os.path.splitext(args.output)[0] + ".pts", pts)
    elif kind == "parabola":
        write_points(args.output, generate_erdos_parabola(args.count))
    elif kind == "random-points":
        _check_members(f"count={args.count}", args.count)
        rng = np.random.default_rng(args.seed)
        write_points(args.output, rng.uniform(0, 1, (args.count, args.dim)))
    elif kind == "katz-tao-tubes":
        fam, complete = generate_katz_tao_tubes(args.delta, args.t1, args.t2,
                                                args.count, args.seed, dim=args.dim)
        write_tubes(args.output, fam)
        if not complete:
            print(f"warning: only {len(fam)} of {args.count} tubes accepted",
                  file=sys.stderr)
    else:
        raise ValueError(f"unknown family {kind}")
    return 0


def _cmd_validate(args) -> int:
    violations = validate_file(args.path)
    for v in violations:
        print(v)
    return EXIT_VALIDATION if violations else 0


def _cmd_dx(args) -> int:
    cfg = read_config(args.path)
    d, (i, j) = min_config_distance(cfg, return_witness=True)
    rows = [f"{d:.17g},{i},{j},{len(cfg)}"]
    _write_csv(args.output, ["minimal configuration distance",
                             "value: min over ordered pairs of point-to-line distance",
                             "witness_point/witness_line: realizing indices"],
               "value,witness_point,witness_line,n_pairs", rows)
    return 0


def _cmd_min_triangle(args) -> int:
    P = _enough_points(read_points(args.path), 3, args.path, "min-triangle")
    w = min_triangle_brute(P) if args.method == "brute" else min_triangle_fast(P)
    rows = [f"{w.area:.17g},{w.indices[0]},{w.indices[1]},{w.indices[2]},{args.method}"]
    _write_csv(args.output, ["minimal triangle area over all index triples"],
               "area,i,j,k,method", rows)
    return 0


def _cmd_pair_pipeline(args) -> int:
    P = _enough_points(read_points(args.path), 8, args.path, "pair-pipeline")
    witness, rep = triangle_via_pointline(P)
    rows = [f"{witness.area:.17g},{witness.indices[0]},{witness.indices[1]},"
            f"{witness.indices[2]},{rep.n_pairs},{rep.config_distance:.17g},"
            f"{rep.max_pair_length:.17g},{rep.area_bound:.17g}"]
    _write_csv(args.output,
               ["close-pair pipeline: pairs -> configuration distance -> triangle",
                "area_bound = max_pair_length * config_distance / 2"],
               "area,i,j,k,n_pairs,config_distance,max_pair_length,area_bound", rows)
    return 0


def _cmd_conc(args) -> int:
    rows = []
    if args.mode == "points":
        P = read_points(args.path)
        val = m_points(P, args.w)
        rows.append(f"points,{args.u or ''},{args.v or ''},{args.w},{val}")
    elif args.mode == "lines":
        _, lines = _load_lines(args.path)
        dim = _nonempty(lines, args.path)[0].dim
        if args.u is not None and args.u > args.w:
            raise ValueError("need u <= w")
        if args.u is None and dim == 3:
            print("usage error: --mode lines in 3D needs --u", file=sys.stderr)
            return EXIT_USAGE
        # a 2D rectangle is w x 1: u is not used there
        val = m_lines(lines, args.w if args.u is None else args.u, args.w)
        rows.append(f"lines,{'' if args.u is None else args.u},,{args.w},{val}")
    elif args.u is None or args.v is None:
        print("usage error: --mode config needs --u and --v", file=sys.stderr)
        return EXIT_USAGE
    else:
        cfg = read_config(args.path)
        val = m_config(cfg, args.u, args.v, args.w)
        rows.append(f"config,{args.u},{args.v},{args.w},{val}")
    _write_csv(args.output, ["concentration numbers at the given scales"],
               "mode,u,v,w,value", rows)
    return 0


def _cmd_katz_tao(args) -> int:
    if args.path.endswith(".tubes"):
        fit = katz_tao_fit(_tube_arrays(_nonempty(read_tubes(args.path), args.path)),
                           args.delta)
    else:
        fit = katz_tao_fit(_nonempty(_load_lines(args.path)[1], args.path), args.delta)
    rows = [f"{u:.12g},{w:.12g},{m},{f:.12g}" for (u, w, m, f) in fit.residuals]
    exps = ";".join(f"{e:.6g}" for e in fit.exponents)
    _write_csv(args.output,
               ["concentration exponent fit over dyadic boxes",
                f"exponents: {exps}  constant: {fit.constant:.6g}"],
               "u,w,measured,fitted", rows)
    return 0


def _cmd_plane_check(args) -> int:
    cfg = read_config(args.path)
    rep = plane_reduction_check(cfg, args.delta, args.gamma)
    rows = [f"{r.u:.12g},{r.w:.12g},{r.measured},{r.bound:.12g},{r.ratio:.12g}"
            for r in rep.rows]
    _write_csv(args.output,
               ["box concentration against the plane-reduction bound",
                f"precondition_ok: {rep.precondition_ok}",
                f"fitted_constant: {rep.fitted_constant:.6g}",
                f"slab_count: {rep.slab_count}  slab_bound: {rep.slab_bound:.6g}"],
               "u,w,measured,bound,ratio", rows)
    return 0


def _cmd_uniformize(args) -> int:
    cfg = read_config(args.path)
    sub, cert = uniformize(cfg, args.K, delta=args.delta)
    write_config(args.output, sub)
    rows = [f"{si:.12g},{sj:.12g},{sk:.12g},{mn},{mx}"
            for (si, sj, sk), (mn, mx) in sorted(cert.ratios.items())]
    _write_csv(args.output + ".cert.csv",
               ["uniformity certificate: per scale triple min/max local counts",
                f"K: {cert.K}  retained: {cert.retained} of {cert.original}",
                f"valid: {cert.valid}"],
               "scale_point,scale_dir,scale_line,min_count,max_count", rows)
    return 0


def _cmd_scan_b(args) -> int:
    P = read_points(args.points)
    cfg, lines = _load_lines(args.lines)
    report = dyadic_scan(P, lines, args.wmin, args.wmax, cfg.dim)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_csv())
    return 0


def _cmd_highlow_check(args) -> int:
    P = read_points(args.points)
    cfg, lines = _load_lines(args.lines)
    dim = cfg.dim
    d = args.delta
    bs = normalized_incidence(d, P, lines, dim), normalized_incidence(2 * d, P, lines, dim)
    lhs2 = (bs[0] - bs[1]) ** 2
    if args.variant == "basic":
        rhs = rhs_basic(d, P, lines, dim, args.eps)
        extra = []
    elif args.variant == "refined":
        rhs, best_u = rhs_refined(d, P, lines, args.eps)
        extra = [f"maximizing_u: {best_u:.12g}"]
    elif args.variant == "capped":
        rhs = rhs_direction_capped(d, P, lines, args.nu, args.kappa, args.M, args.eps)
        extra = []
    else:
        ws = rhs_wellspaced(d, P, lines, args.t1, args.t2, args.K, args.A,
                            args.C0, args.eps)
        rhs = ws.value
        lhs2 = abs(bs[0] - bs[1]) ** 4.5
        extra = [f"alpha: {ws.alpha:.6g}"]
    rows = [f"{d:.12g},{bs[0]:.12g},{bs[1]:.12g},{lhs2:.12g},{rhs:.12g},{lhs2 / rhs:.12g}"]
    _write_csv(args.output,
               ["high-low check: squared (or 9/2-power) difference vs RHS",
                f"variant: {args.variant}"] + extra,
               "delta,b_fine,b_coarse,lhs_power,rhs,ratio", rows)
    return 0


def _cmd_initial_est(args) -> int:
    cfg = read_config(args.path)
    chk = initial_estimate_check(cfg, args.w)
    _write_csv(args.output,
               ["incidence lower bound from rescaled direction counts"],
               "w,lhs,rhs,slack",
               [f"{args.w:.12g},{chk.lhs:.12g},{chk.rhs:.12g},{chk.slack:.12g}"])
    return 0


def _cmd_double_count(args) -> int:
    cfg = read_config(args.path)
    _nonempty(cfg.pairs, args.path)
    chk = double_count_check(cfg, args.w)
    _write_csv(args.output,
               ["line covering number against w * direction cover * point cover"],
               "w,lhs,rhs,slack",
               [f"{args.w:.12g},{chk.lhs:.12g},{chk.rhs:.12g},{chk.slack:.12g}"])
    return 0


def _cmd_two_ends(args) -> int:
    tubes = read_tubes(args.path)
    res = two_ends_decompose(tubes, args.delta, args.span,
                             rich_constant=args.rich_constant)
    rows = [f"{res.n_tubes},{res.delta:.12g},{res.span:.12g},{res.rich_threshold:.12g},"
            f"{res.rounds_run},{len(res.tubes_out)},{res.max_selection},"
            f"{res.overlap_measured},{res.overlap_upper},{res.overlap_bound:.12g},"
            f"{res.selection_bound:.12g},{int(res.exact_net)}"]
    _write_csv(args.output,
               ["two-ends decomposition certificate",
                "overlap_*: residual multiplicity (measured / upper bound)",
                "bounds: reference values 100 span^-2 sqrt(n) and 10 log(1/delta)/log(2/span)"],
               "n_tubes,delta,span,rich_threshold,rounds,n_excisions,max_selection,"
               "overlap_measured,overlap_upper,overlap_bound,selection_bound,exact_net",
               rows)
    return 0


def _cmd_brush_check(args) -> int:
    tubes = _nonempty(read_tubes(args.path), args.path)
    dim = tubes[0].center.shape[0]
    shading = Shading.full(tubes) if args.density == 1.0 else \
        Shading.random_fraction(tubes, args.density, args.seed)
    exponents = (args.t1, args.t2)[:dim - 1]
    K = args.K
    if K is None:
        K = measure_kt_constant(tubes, max(t.width for t in tubes), *exponents) * 1.01
    check = check_planar_brush if dim == 2 else check_space_brush
    rep = check(tubes, shading, *exponents, K, args.eps)
    _write_csv(args.output,
               ["shaded union volume against the concentration lower bound"],
               "dim,n_tubes,density,volume,bound,constant_needed",
               [f"{dim},{len(tubes)},{rep.density:.12g},{rep.measured_volume:.12g},"
                f"{rep.bound:.12g},{rep.constant_needed:.12g}"])
    return 0


def _cmd_anneal(args) -> int:
    sched = AnnealSchedule(t0=args.t0, cooling=args.cooling,
                           moves_per_epoch=args.moves, epochs=args.epochs,
                           seed=args.seed)
    mhash = _manifest(args).digest()
    ledger = args.ledger
    if ledger and os.path.exists(ledger):
        with open(ledger, encoding="utf-8") as fh:
            if any(line.startswith(mhash + ",") for line in fh):
                print(f"manifest {mhash} already in ledger; skipping")
                return 0
    if args.objective == "distance":
        X = anneal_max_distance(args.n, args.dim, sched)
        value = min_config_distance(X)
        write_config(args.output, X)
    else:
        P = anneal_max_triangle(args.n, args.dim, sched)
        value = float(min_triangle_fast(P).area)
        write_points(args.output, P)
    if ledger:
        new = not os.path.exists(ledger)
        with open(ledger, "a", encoding="utf-8") as fh:
            if new:
                fh.write("manifest_hash,objective,n,dim,seed,value\n")
            fh.write(f"{mhash},{args.objective},{args.n},{args.dim},{args.seed},"
                     f"{value:.17g}\n")
    return 0


def _cmd_exponent(args) -> int:
    rungs = [float(r) for r in args.rungs.split(",")]
    seeds = list(range(args.seeds))
    cells = [(r, s) for r in rungs for s in seeds]
    values = [measure_family(args.family, r, seed=s, dim=args.dim) for r, s in cells]
    by_rung: dict[float, list[float]] = {}
    for (r, _), v in zip(cells, values):
        by_rung.setdefault(r, []).append(v)
    fit = exponent_estimate(by_rung)
    rows = [f"{r:.12g},{v:.12g}" for r, v in zip(fit.ladder, fit.values)]
    _write_csv(args.output,
               ["log-log exponent fit over the rung ladder",
                f"family: {args.family}  slope: {fit.slope:.6g}  "
                f"intercept: {fit.intercept:.6g}  r_squared: {fit.r_squared:.6g}"],
               "rung,median_value", rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heilbronn",
                                 description="point-line configurations, incidence "
                                             "statistics and triangle search")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family")
    p.add_argument("family", choices=["vertical", "bush", "plane", "st-grid",
                                      "parabola", "random-points", "katz-tao-tubes"])
    p.add_argument("--delta", type=float, default=0.0625)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--bushes", type=int, default=1)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check a data file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dx", help="minimal configuration distance")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dx)

    p = sub.add_parser("min-triangle", help="minimal triangle area")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--method", choices=["brute", "fast"], default="fast")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_min_triangle)

    p = sub.add_parser("pair-pipeline", help="close pairs to triangle pipeline")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_pair_pipeline)

    p = sub.add_parser("conc", help="concentration numbers")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--mode", choices=["points", "lines", "config"], required=True)
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_conc)

    p = sub.add_parser("katz-tao", help="concentration exponent fit")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_katz_tao)

    p = sub.add_parser("plane-check", help="plane-reduction concentration check")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plane_check)

    p = sub.add_parser("uniformize", help="extract a uniform subset")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_uniformize)

    p = sub.add_parser("scan-b", help="dyadic incidence scan")
    p.add_argument("-p", "--points", required=True)
    p.add_argument("-l", "--lines", required=True)
    p.add_argument("--wmin", type=float, required=True)
    p.add_argument("--wmax", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_scan_b)

    p = sub.add_parser("highlow-check", help="high-low inequality evaluation")
    p.add_argument("-p", "--points", required=True)
    p.add_argument("-l", "--lines", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--variant", choices=["basic", "refined", "capped", "wellspaced"],
                   default="basic")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--C0", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_highlow_check)

    p = sub.add_parser("initial-est", help="initial incidence estimate check")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_initial_est)

    p = sub.add_parser("double-count", help="double counting check")
    p.add_argument("-p", "--path", required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_double_count)

    p = sub.add_parser("two-ends", help="two-ends decomposition certificate")
    p.add_argument("-t", "--path", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--span", type=float, required=True)
    p.add_argument("--rich-constant", type=float, default=4.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_two_ends)

    p = sub.add_parser("brush-check", help="shading union volume check")
    p.add_argument("-t", "--path", required=True)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--K", type=float)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_brush_check)

    p = sub.add_parser("anneal", help="stochastic extremal search")
    p.add_argument("--objective", choices=["distance", "triangle"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--t0", type=float, default=0.1)
    p.add_argument("--cooling", type=float, default=0.95)
    p.add_argument("--moves", type=int, default=2000)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ledger")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_anneal)

    p = sub.add_parser("exponent", help="log-log exponent estimate")
    p.add_argument("--family", choices=["vertical_count", "pipeline_area",
                                        "anneal_distance", "anneal_triangle"],
                   required=True)
    p.add_argument("--rungs", required=True, help="comma-separated ladder values")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_exponent)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    manifest = _manifest(args)
    started = time.time()
    try:
        rc = args.func(args)
    except (FormatError, EmptyConfigurationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (HypothesisViolation, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = getattr(args, "output", None)
    if rc == 0 and out:
        _write_log(out, manifest, started)
    return rc


if __name__ == "__main__":
    sys.exit(main())
