"""Stochastic search for extremal configurations and scaling-law fits.

Both annealers maximize a bottleneck objective (the minimal configuration
distance, or the minimal triangle area), so the energy landscape is flat
almost everywhere: moves that leave the bottleneck unchanged are accepted
with probability 1/2 to allow drift, improving moves always, worsening moves
with the Metropolis factor.  The best state ever seen is tracked separately
and returned, so the reported objective never degrades with more moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configurations import (
    PointLineConfiguration,
    PointLinePair,
    _check_members,
    generate_vertical,
    min_config_distance,
)
from .geometry import Line, _point_lines_rows, _points_lines_block, _require_finite


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule; all randomness flows from the seed."""

    t0: float = 0.1
    cooling: float = 0.95
    moves_per_epoch: int = 2000
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.t0 < np.inf:
            raise ValueError(f"t0 must be finite and non-negative, got {self.t0}")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must lie in (0, 1)")
        if self.moves_per_epoch < 1 or self.epochs < 1:
            raise ValueError("moves_per_epoch and epochs must be positive")


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slope of a measured quantity across a parameter ladder."""

    ladder: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


def _unit_sphere(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


class _DistanceState:
    """Configuration state with the point-to-line distance matrix maintained."""

    def __init__(self, points: np.ndarray, dirs: np.ndarray):
        self.points = points.copy()
        self.dirs = dirs.copy()
        n = points.shape[0]
        self.D = np.empty((n, n))
        for j in range(n):
            self._refresh_column(j)

    def _refresh_column(self, j):
        self.D[:, j] = _points_lines_block(self.points, self.points[[j]], self.dirs[[j]])[0]
        self.D[j, j] = np.inf

    def _refresh_row(self, i):
        self.D[i, :] = _point_lines_rows(self.points[i], self.points, self.dirs)
        self.D[i, i] = np.inf

    def objective(self) -> float:
        return float(self.D.min())

    def move(self, k, point=None, direction=None):
        old_p = self.points[k].copy()
        old_v = self.dirs[k].copy()
        old_row = self.D[k, :].copy()
        old_col = self.D[:, k].copy()
        if point is not None:
            self.points[k] = point
        if direction is not None:
            self.dirs[k] = direction
        self._refresh_row(k)
        self._refresh_column(k)
        return old_p, old_v, old_row, old_col

    def undo(self, k, saved):
        old_p, old_v, old_row, old_col = saved
        self.points[k] = old_p
        self.dirs[k] = old_v
        self.D[k, :] = old_row
        self.D[:, k] = old_col


def _accept(rng, delta_e: float, temp: float) -> bool:
    if delta_e < 0:
        return True
    if delta_e == 0:
        return rng.random() < 0.5
    if temp <= 0:
        return False
    return rng.random() < np.exp(-delta_e / temp)


def anneal_max_distance(n: int, dim: int, schedule: AnnealSchedule,
                        init: PointLineConfiguration | None = None) -> PointLineConfiguration:
    """Search for a configuration maximizing the minimal distance.

    Moves: slide a point along its line (clipped to the cube), rotate a line
    about its point, or teleport a pair.  Seeding with `init` guarantees the
    result is never worse than the seed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    rng = np.random.default_rng(schedule.seed)
    if init is not None:
        points = init.points()
        dirs = init.directions()
    else:
        points = rng.uniform(0, 1, (n, dim))
        dirs = np.array([_unit_sphere(rng, dim) for _ in range(n)])
    state = _DistanceState(points, dirs)
    obj = state.objective()
    best_obj = obj
    best = (state.points.copy(), state.dirs.copy())
    temp = schedule.t0
    for _ in range(schedule.epochs):
        for _ in range(schedule.moves_per_epoch):
            k = int(rng.integers(n))
            kind = int(rng.integers(3))
            if kind == 0:
                # slide along the line, staying inside the cube
                v = state.dirs[k]
                p = state.points[k]
                with np.errstate(divide="ignore", invalid="ignore"):
                    lo_t = np.where(v > 1e-12, -p / v,
                                    np.where(v < -1e-12, (1 - p) / v, -np.inf)).max()
                    hi_t = np.where(v > 1e-12, (1 - p) / v,
                                    np.where(v < -1e-12, -p / v, np.inf)).min()
                t = float(np.clip(rng.normal(0.0, 0.2 + temp), lo_t, hi_t))
                saved = state.move(k, point=np.clip(p + t * v, 0.0, 1.0))
            elif kind == 1:
                # a t0 near the float maximum can overflow the direction:
                # it is skipped, like a direction too short to normalize
                with np.errstate(over="ignore"):
                    v = state.dirs[k] + (0.3 + temp) * rng.normal(size=dim)
                    nv = np.linalg.norm(v)
                if not 1e-12 <= nv < np.inf:
                    continue
                saved = state.move(k, direction=v / nv)
            else:
                saved = state.move(k, point=rng.uniform(0, 1, dim),
                                   direction=_unit_sphere(rng, dim))
            new_obj = state.objective()
            if _accept(rng, obj - new_obj, temp):  # energy = -objective
                obj = new_obj
                if obj > best_obj:
                    best_obj = obj
                    best = (state.points.copy(), state.dirs.copy())
            else:
                state.undo(k, saved)
                obj = state.objective()
        temp *= schedule.cooling
    pts, dirs = best
    pairs = tuple(PointLinePair(p, Line(p, v)) for p, v in zip(pts, dirs))
    return PointLineConfiguration(dim=dim, pairs=pairs)


def _min_triangle_value(P: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    from .triangles import min_triangle_brute
    w = min_triangle_brute(P)
    return w.area, w.indices


def _min_with_vertex(P: np.ndarray, k: int) -> float:
    """Minimal triangle area among triples containing vertex k."""
    from .triangles import _pair_cross_blocks, _upper_argmin
    B = np.delete(P, k, axis=0) - P[k]
    return _upper_argmin(_pair_cross_blocks(B), np.tri(B.shape[0], dtype=bool))[2] / 2.0


def anneal_max_triangle(n: int, dim: int, schedule: AnnealSchedule) -> np.ndarray:
    """Search for a point set maximizing the minimal triangle area.

    Incremental scoring: a move of point k only needs the triangles through
    k unless the previous bottleneck triple contained k, which forces a full
    rescan.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(schedule.seed)
    P = rng.uniform(0, 1, (n, dim))
    obj, argmin = _min_triangle_value(P)
    best_obj, best = obj, P.copy()
    temp = schedule.t0
    for _ in range(schedule.epochs):
        for _ in range(schedule.moves_per_epoch):
            k = int(rng.integers(n))
            old = P[k].copy()
            if rng.random() < 0.8:
                with np.errstate(over="ignore"):  # an overflowing step clips to a face
                    P[k] = np.clip(P[k] + (0.1 + temp) * rng.normal(size=dim), 0.0, 1.0)
            else:
                P[k] = rng.uniform(0, 1, dim)
            if k in argmin:
                new_obj, new_arg = _min_triangle_value(P)
            else:
                local = _min_with_vertex(P, k)
                if local < obj:
                    new_obj, new_arg = local, None
                else:
                    new_obj, new_arg = obj, argmin
            if _accept(rng, obj - new_obj, temp):
                if new_arg is None:
                    new_obj, new_arg = _min_triangle_value(P)
                obj, argmin = new_obj, new_arg
                if obj > best_obj:
                    best_obj, best = obj, P.copy()
            else:
                P[k] = old
        temp *= schedule.cooling
    return best


def exponent_estimate(values_by_rung: dict[float, list[float]]) -> ExponentFit:
    """Log-log least squares on per-rung medians.

    `values_by_rung` maps the ladder parameter (n or delta) to measured
    values across seeds; rungs with no positive values are dropped.
    """
    ladder, meds = [], []
    for x in sorted(values_by_rung):
        vals = [v for v in values_by_rung[x] if v > 0 and np.isfinite(v)]
        if vals:
            ladder.append(float(x))
            meds.append(float(np.median(vals)))
    if len(ladder) < 3:
        raise ValueError("need at least 3 valid ladder rungs")
    lx = np.log(ladder)
    ly = np.log(meds)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(ladder=tuple(ladder), values=tuple(meds),
                       slope=float(slope), intercept=float(intercept),
                       r_squared=r2)


def measure_family(family: str, rung, dim: int, seed: int = 0) -> float:
    """Measured quantity for one (family, rung, seed) experiment cell.

    Families: 'vertical_count' (|X| vs delta), 'pipeline_area' (triangle
    area vs n), 'anneal_distance' (annealed minimal distance at fixed
    n = rung), 'anneal_triangle' (annealed minimal triangle area at
    n = rung).  Raises ValueError for a rung that is not finite, and for a
    family over the generators' member cap.
    """
    _require_finite(family, rung=rung)
    if family == "vertical_count":
        return float(len(generate_vertical(float(rung), dim)))
    if family == "pipeline_area":
        from .triangles import triangle_via_pointline
        _check_members(f"rung {rung!r}", rung)
        rng = np.random.default_rng(seed)
        P = rng.uniform(0, 1, (int(rung), dim))
        witness, _ = triangle_via_pointline(P)
        return float(witness.area)
    sched = AnnealSchedule(moves_per_epoch=200, epochs=25, seed=seed)
    if family == "anneal_distance":
        n = int(rung)
        init = None
        try:
            cand = generate_vertical(1.0 / (2 * n ** (1.0 / (dim - 1))), dim)
            if len(cand) == n:
                init = cand
        except ValueError:
            init = None
        X = anneal_max_distance(n, dim, sched, init=init)
        return float(min_config_distance(X))
    if family == "anneal_triangle":
        P = anneal_max_triangle(int(rung), dim, sched)
        from .triangles import min_triangle_fast
        return float(min_triangle_fast(P).area)
    raise ValueError(f"unknown family {family!r}")
