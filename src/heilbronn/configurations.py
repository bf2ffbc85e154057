"""Point-line configurations in the unit cube and the named generators.

A configuration is an ordered collection of (point, line-through-point)
pairs.  Its key statistic is the minimal distance: the smallest distance from
a point of one pair to the line of a different pair.  Generators cover the
standard extremal families: the vertical grid construction, bushes of
concurrent lines, coplanar families, the grid-and-pencils incidence family,
and the quadratic-residue parabola point set.  Each generator sizes its
family before building it and refuses one of more than `_MAX_MEMBERS`
members with ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Line,
    as_point,
    canonical_direction,
    point_line_distance,
    points_line_distance,
)

SNAP_TOL = 1e-9
RANGE_TOL = 1e-9
# the most members (pairs, lines, points or tubes) a generated family may
# have, about 0.7 GB of Line objects: generators size the family first and
# refuse a larger one with ValueError (exit 3) before allocating anything
_MAX_MEMBERS = 2**20


def _check_members(what: str, *factors) -> None:
    """ValueError when a family of prod(factors) members (inf allowed) is over
    `_MAX_MEMBERS`."""
    if not math.prod(factors) <= _MAX_MEMBERS:
        raise ValueError(f"{what} asks for more members than the cap of {_MAX_MEMBERS}")


class EmptyConfigurationError(ValueError):
    """A generator or restriction produced no usable pairs."""


class UndefinedInputError(ValueError):
    """Operation undefined for the given input size."""


@dataclass(frozen=True, eq=False)
class PointLinePair:
    """A point and a line through it (the point is re-snapped onto the line)."""

    point: np.ndarray
    line: Line

    def __init__(self, point, line: Line):
        p = as_point(point, line.dim)
        snapped = line.project(p)
        snapped.setflags(write=False)
        object.__setattr__(self, "point", snapped)
        object.__setattr__(self, "line", line)

    @property
    def dim(self) -> int:
        return self.line.dim

    def __eq__(self, other):
        if not isinstance(other, PointLinePair):
            return NotImplemented
        return np.array_equal(self.point, other.point) and self.line == other.line

    def __hash__(self):
        return hash((tuple(np.round(self.point, 9)), self.line))


@dataclass(frozen=True)
class PointLineConfiguration:
    """Ordered pairs (p, line through p) with points in the unit cube."""

    dim: int
    pairs: tuple[PointLinePair, ...]

    def __post_init__(self):
        for pair in self.pairs:
            if pair.dim != self.dim:
                raise ValueError("pair dimension differs from configuration dimension")
            if np.any(pair.point < -RANGE_TOL) or np.any(pair.point > 1 + RANGE_TOL):
                raise ValueError("pair point outside the unit cube")

    def __len__(self) -> int:
        return len(self.pairs)

    def points(self) -> np.ndarray:
        return np.array([p.point for p in self.pairs])

    def lines(self) -> list[Line]:
        return [p.line for p in self.pairs]

    def line_bases(self) -> np.ndarray:
        return np.array([p.line.base for p in self.pairs])

    def directions(self) -> np.ndarray:
        return np.array([p.line.dir for p in self.pairs])

    def validate(self) -> list[str]:
        """Re-check invariants; returns a list of violations (empty when valid)."""
        issues = []
        seen: dict[tuple, int] = {}
        for i, pair in enumerate(self.pairs):
            if point_line_distance(pair.point, pair.line) > SNAP_TOL:
                issues.append(f"pair {i}: point off its line")
            if np.any(pair.point < -RANGE_TOL) or np.any(pair.point > 1 + RANGE_TOL):
                issues.append(f"pair {i}: point outside unit cube")
            key = (tuple(np.round(pair.point, 12)), tuple(np.round(pair.line.dir, 12)))
            if key in seen:
                issues.append(f"pair {i}: duplicates pair {seen[key]}")
            else:
                seen[key] = i
        return issues


def make_config(points, lines, dim: int | None = None) -> PointLineConfiguration:
    """Build a configuration from parallel sequences of points and lines."""
    lines = list(lines)
    if dim is None:
        if not lines:
            raise EmptyConfigurationError("cannot infer dimension of empty configuration")
        dim = lines[0].dim
    pairs = tuple(PointLinePair(p, ln) for p, ln in zip(points, lines, strict=True))
    return PointLineConfiguration(dim=dim, pairs=pairs)


def min_config_distance(config: PointLineConfiguration, return_witness: bool = False):
    """Minimal distance min over i != j of d(p_i, line_j).

    The minimum runs over ordered index pairs with distinct indices, so two
    pairs sharing a line force the value to zero.
    """
    n = len(config)
    if n < 2:
        raise UndefinedInputError("min_config_distance needs at least 2 pairs")
    best, witness = _nearest_point_line(config.points(), config.lines())
    if return_witness:
        return best, witness
    return best


def _nearest_point_line(P: np.ndarray, lines) -> tuple[float, tuple[int, int]]:
    """min over i != j of d(P[i], lines[j]) with the first realizing (i, j): lines
    in order, the first argmin per line, replaced only by a strictly smaller one."""
    best = np.inf
    witness = (0, 1)
    for j, line in enumerate(lines):
        d = points_line_distance(P, line)
        d[j] = np.inf
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
            witness = (i, j)
    return best, witness


def generate_vertical(delta: float, dim: int) -> PointLineConfiguration:
    """Grid of floor(1/(2 delta))^(dim-1) points with vertical lines.

    Points sit on a grid of spacing 2*delta in the bottom face, each carrying
    the line in the last coordinate direction, so the minimal distance is
    exactly 2*delta >= delta.
    """
    if not 0 < delta < 0.5:
        raise EmptyConfigurationError("need 0 < delta < 1/2")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    side = float(np.floor(1.0 / (2.0 * delta)))  # inf when 1 / (2 delta) overflows
    _check_members(f"delta={delta!r}", *[side] * (dim - 1))
    k = int(side)
    axes = [np.arange(k) * 2.0 * delta for _ in range(dim - 1)]
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    base_coords = np.stack([g.ravel() for g in grids], axis=1)
    vertical = np.zeros(dim)
    vertical[-1] = 1.0
    points = np.hstack([base_coords, np.zeros((base_coords.shape[0], 1))])
    lines = [Line(p, vertical) for p in points]
    return make_config(points, lines, dim=dim)


def _fibonacci_hemisphere(count: int, margin: float) -> np.ndarray:
    """count roughly evenly spread directions on the upper hemisphere."""
    i = np.arange(count)
    z = margin + (1.0 - margin) * (i + 0.5) / count
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    s = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def generate_bush(delta: float, dim: int, n_bushes: int, seed: int = 0):
    """Bushes of directionally separated lines through random centers.

    Returns (points, lines): the points are only the bush centers, each
    center carries ~delta^(1-dim) lines whose directions are delta-separated.
    """
    if not 0 < delta <= 0.1:
        raise ValueError("need 0 < delta <= 0.1")
    if dim == 2:
        per_bush = float(np.ceil(np.pi / delta))  # the length of arange(0, pi, delta)
    else:
        try:
            per_bush = max(1, round(delta ** -2))
        except OverflowError:
            per_bush = math.inf
    _check_members(f"delta={delta!r} with {n_bushes} bushes", n_bushes, per_bush)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(n_bushes, dim))
    lines = []
    if dim == 2:
        angles = np.arange(0.0, np.pi, delta)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        dirs = _fibonacci_hemisphere(per_bush, margin=delta)
    for c in centers:
        for v in dirs:
            lines.append(Line(c, v))
    return centers, lines


def generate_plane_example(delta: float):
    """Coplanar family in R^3: a point grid and a line grid inside z = 1/2.

    Both families are ~delta-separated with ~delta^-2 members; all line
    directions lie in one great circle of the sphere.
    """
    if not 0 < delta < 0.5:
        raise ValueError("need 0 < delta < 1/2")
    side = float(np.floor(1.0 / (2.0 * delta)))  # inf when 1 / (2 delta) overflows
    _check_members(f"delta={delta!r}", side, side)
    k = int(side)
    if k < 2:
        raise ValueError("delta too coarse for the coplanar family")
    xs = np.arange(k) * 2.0 * delta
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, 0.5)], axis=1)
    lines = []
    angles = np.arange(k) * np.pi / k
    offsets = (np.arange(k) + 0.5) * 2.0 * delta - 0.5
    center = np.array([0.5, 0.5, 0.5])
    for th in angles:
        v = np.array([np.cos(th), np.sin(th), 0.0])
        nrm = np.array([-np.sin(th), np.cos(th), 0.0])
        for off in offsets:
            lines.append(Line(center + off * nrm, v))
    return points, lines


def generate_st_grid(N: int):
    """Grid-and-pencils sharp incidence family in the unit square.

    With n = round(N^(1/3)): points {1..n} x {1..2n^2} and lines y = a x + b,
    a in {1..n}, b in {1..n^2}, every line meeting exactly n grid points, for
    n^4 = N^(4/3) incidences in exact integer geometry.  Both families are
    then scaled into the unit square.
    """
    if N < 8:
        raise ValueError("need N >= 8")
    _check_members(f"N={N}", 2, N)  # 2 n^3 <= 2 N points
    n = round(N ** (1.0 / 3.0))
    if n**3 > N:
        n -= 1
    xs = np.arange(1, n + 1)
    ys = np.arange(1, 2 * n**2 + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([gx.ravel() / n, gy.ravel() / (2.0 * n**2)], axis=1)
    lines = []
    for a in range(1, n + 1):
        v = canonical_direction([1.0, a / (2.0 * n)])
        for b in range(1, n**2 + 1):
            lines.append(Line(np.array([0.0, b / (2.0 * n**2)]), v))
    return points, lines


def _smallest_prime_at_least(n: int) -> int:
    def is_prime(m: int) -> bool:
        if m < 2:
            return False
        if m % 2 == 0:
            return m == 2
        f = 3
        while f * f <= m:
            if m % f == 0:
                return False
            f += 2
        return True

    m = max(2, n)
    while not is_prime(m):
        m += 1
    return m


def generate_erdos_parabola(n: int) -> np.ndarray:
    """Quadratic-residue point set (i/p, (i^2 mod p)/p) with no 3 collinear."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_members(f"n={n}", n)
    p = _smallest_prime_at_least(n)
    i = np.arange(p)
    return np.stack([i / p, (i * i % p) / p], axis=1)


def rescale_config(config: PointLineConfiguration, scale: float,
                   anchor: PointLinePair) -> PointLineConfiguration:
    """Blow up the scale-cube containing the anchor point onto the unit cube.

    The cube grid is anchored at the origin with side `scale`; pairs whose
    point lies in the anchor's cube survive and are mapped homothetically, so
    the minimal distance grows by the factor 1/scale.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    if not np.isfinite(1.0 / scale):
        raise ValueError(f"scale {scale!r} too small: 1 / scale overflows")
    if not any(anchor is q or anchor == q for q in config.pairs):
        raise ValueError("anchor must be a member of the configuration")
    # the cube index stays in float: 1 / scale can pass the int64 range
    last = np.ceil(1.0 / scale - 1e-12) - 1.0
    corner = np.minimum(np.floor(anchor.point / scale), last) * scale
    lo, hi = corner - RANGE_TOL, corner + scale + RANGE_TOL
    pairs = []
    for pair in config.pairs:
        if np.all(pair.point >= lo) and np.all(pair.point <= hi):
            q = np.clip((pair.point - corner) / scale, 0.0, 1.0)
            line = Line((pair.line.base - corner) / scale, pair.line.dir)
            pairs.append(PointLinePair(q, line))
    if not pairs:
        raise EmptyConfigurationError("no pairs survive the rescaling")
    return PointLineConfiguration(dim=config.dim, pairs=tuple(pairs))


def slab_restriction(config: PointLineConfiguration, box) -> PointLineConfiguration:
    """Collapse a u x w x 1 prism onto the unit square.

    Keeps pairs whose point lies in the box and whose line crosses it with
    chord at least 1/2, drops the thinnest box coordinate, and rescales the
    remaining two onto [0,1]^2.  An empty restriction is a valid empty
    configuration.
    """
    from .geometry import Box, line_box_chord

    if config.dim != 3:
        raise ValueError("slab restriction requires a 3D configuration")
    if not isinstance(box, Box):
        raise TypeError("box must be a geometry.Box")
    pairs = []
    h = box.half_extents
    for pair in config.pairs:
        local = box.frame @ (pair.point - box.center)
        if np.any(np.abs(local) > h + RANGE_TOL):
            continue
        if line_box_chord(pair.line, box) < 0.5:
            continue
        v = box.frame @ pair.line.dir
        q2 = np.array([(local[1] + h[1]) / (2 * h[1]), (local[2] + h[2]) / (2 * h[2])])
        v2 = np.array([v[1] / (2 * h[1]), v[2] / (2 * h[2])])
        if np.linalg.norm(v2) < 1e-12:
            continue
        q2 = np.clip(q2, 0.0, 1.0)
        pairs.append(PointLinePair(q2, Line(q2, v2)))
    return PointLineConfiguration(dim=2, pairs=tuple(pairs))
