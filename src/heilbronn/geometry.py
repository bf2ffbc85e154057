"""Geometric primitives in cube coordinates: points, lines, boxes, greedy nets.

Points are plain float ndarrays of length d, d in {2, 3}.  Lines are stored
in point+direction form with the direction normalized to unit length and a
canonical sign (first nonzero coordinate positive), so that a line has a
unique representation.  All objects are immutable after construction and
every operation in this module is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12      # unit-direction tolerance
FRAME_TOL = 1e-10     # orthonormal-frame tolerance
ON_LINE_TOL = 1e-9    # point-on-line tolerance


class DimensionMismatch(ValueError):
    """Raised when objects of different ambient dimension are combined."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a point as a read-only float vector."""
    p = np.array(x, dtype=float)
    if p.ndim != 1 or p.shape[0] not in (2, 3):
        raise ValueError(f"point must be a vector of length 2 or 3, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError("point has non-finite coordinates")
    p.setflags(write=False)
    return p


def canonical_direction(v) -> np.ndarray:
    """Unit-normalize v and fix the sign so the first nonzero coordinate is positive."""
    v = np.array(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"direction must be a vector, got shape {v.shape}")
    n = _norm(v)
    if not math.isfinite(n) or n == 0.0:
        raise ValueError("direction must be a nonzero finite vector")
    if abs(n - 1.0) > 1e-13:  # keep already-unit vectors bit-stable
        v = v / n
    for c in v.tolist():
        if abs(c) > 1e-14:
            if c < 0:
                v = -v
            break
    v.setflags(write=False)
    return v


def direction_distance(u, v) -> float:
    """Distance between directions identified up to sign: min(|u-v|, |u+v|)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(min(np.linalg.norm(u - v), np.linalg.norm(u + v)))


@dataclass(frozen=True)
class Line:
    """Infinite line through `base` with unit direction `dir` (canonical sign)."""

    base: np.ndarray
    dir: np.ndarray

    def __init__(self, base, dir):
        b = as_point(base)
        d = canonical_direction(dir)
        if b.shape[0] != d.shape[0]:
            raise DimensionMismatch("base and direction dimensions differ")
        if abs(_norm(d) - 1.0) > UNIT_TOL:
            raise ValueError("direction failed unit normalization")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "dir", d)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.dir

    def project(self, p) -> np.ndarray:
        """Orthogonal projection of p onto the line."""
        p = as_point(p, self.dim)
        t = float((p - self.base) @ self.dir)
        return self.point_at(t)

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self.dir, other.dir)
                and point_line_distance(other.base, self) < ON_LINE_TOL)

    def __hash__(self):
        return hash((self.dim, tuple(np.round(self.dir, 9))))


@dataclass(frozen=True)
class Box:
    """Oriented box with half-extents sorted ascending (a u x w x 1 prism).

    `frame` rows are the box axes; row i corresponds to half_extents[i], so the
    longest side comes last.
    """

    center: np.ndarray
    half_extents: np.ndarray
    frame: np.ndarray

    def __init__(self, center, half_extents, frame):
        c = as_point(center)
        h = np.array(half_extents, dtype=float)
        F = np.array(frame, dtype=float)
        d = c.shape[0]
        if h.shape != (d,) or F.shape != (d, d):
            raise ValueError("half_extents / frame shapes inconsistent with center")
        if np.any(h <= 0):
            raise ValueError("degenerate box: all half-extents must be positive")
        if np.any(np.diff(h) < -1e-12):
            raise ValueError("half-extents must be sorted ascending")
        if not np.allclose(F @ F.T, np.eye(d), atol=FRAME_TOL):
            raise ValueError("frame is not orthonormal")
        h.setflags(write=False)
        F.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)
        object.__setattr__(self, "frame", F)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def dilate(self, factor: float) -> "Box":
        return Box(self.center, self.half_extents * factor, self.frame)


@dataclass(frozen=True)
class SphericalRectangle:
    """Neighborhood of a great-circle arc on S^2.

    The arc has center direction `center`, tangent `axis` (orthogonal to the
    center), and total length `length`; the rectangle is the neighborhood of
    total width `width` (so an "a x b" rectangle has width=a, length=b).
    """

    center: np.ndarray
    axis: np.ndarray
    width: float
    length: float

    def __init__(self, center, axis, width, length):
        c = canonical_direction(center)
        a = np.array(axis, dtype=float)
        a = a - (a @ c) * c
        n = np.linalg.norm(a)
        if n < 1e-12:
            raise ValueError("axis must not be parallel to center direction")
        a = a / n
        a.setflags(write=False)
        if not (0 < width <= length <= 2 * np.pi):
            raise ValueError("need 0 < width <= length <= 2*pi")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "width", float(width))
        object.__setattr__(self, "length", float(length))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Arc endpoints on the sphere."""
        h = self.length / 2.0
        e1 = np.cos(h) * self.center + np.sin(h) * self.axis
        e2 = np.cos(h) * self.center - np.sin(h) * self.axis
        return e1, e2


def point_line_distance(p, line: Line) -> float:
    """Euclidean distance from p to the infinite line."""
    p = as_point(p, line.dim)
    u = p - line.base
    t = float(u @ line.dir)
    return float(np.linalg.norm(u - t * line.dir))


def points_line_distance(P: np.ndarray, line: Line) -> np.ndarray:
    """Vectorized point_line_distance for an (n, d) array of points."""
    return _points_line_rows(np.asarray(P, dtype=float), line.base, line.dir)


def _points_line_rows(P: np.ndarray, base: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distances from the rows of P to the line through `base` with unit direction v."""
    U = P - base
    t = U @ v
    return np.linalg.norm(U - t[:, None] * v, axis=1)


def _points_lines_block(P: np.ndarray, bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distances from the rows of P to each line (bases[j], unit dirs[j]): (m, n).

    Row j goes through the operations of _points_line_rows(P, bases[j],
    dirs[j]), the projection one (n, d) x d BLAS product per line (a stacked
    matmul), so a row does not depend on the other lines of the block.
    Temporaries are (m, n, d); callers bound m * n.
    """
    U = P[None, :, :] - bases[:, None, :]
    t = np.matmul(U, dirs[:, :, None])
    return np.linalg.norm(U - t * dirs[:, None, :], axis=2)


def _point_lines_rows(p: np.ndarray, bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distances from the point p to each line (bases[j], unit dirs[j])."""
    U = p - bases
    t = np.einsum("ij,ij->i", U, dirs)
    return np.linalg.norm(U - t[:, None] * dirs, axis=1)


def _direction_rows(dirs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """direction_distance from v to each row of `dirs`."""
    return np.minimum(np.linalg.norm(dirs - v, axis=1), np.linalg.norm(dirs + v, axis=1))


def lines_min_distance(l1: Line, l2: Line) -> float:
    """Minimum distance between two infinite lines."""
    if l1.dim != l2.dim:
        raise DimensionMismatch("lines of different dimension")
    v1, v2 = l1.dir, l2.dir
    if l1.dim == 2:
        cross = v1[0] * v2[1] - v1[1] * v2[0]
        if abs(cross) < 1e-12:
            return point_line_distance(l2.base, l1)
        return 0.0
    n = np.cross(v1, v2)
    nn = float(np.linalg.norm(n))
    if nn < 1e-12:
        return point_line_distance(l2.base, l1)
    return float(abs((l2.base - l1.base) @ n) / nn)


def line_metric(l1: Line, l2: Line) -> float:
    """Premetric on lines: direction distance (mod sign) plus minimal point distance.

    Symmetric, zero exactly on identical lines.
    """
    return direction_distance(l1.dir, l2.dir) + lines_min_distance(l1, l2)


def line_metric_many(line: Line, bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """line_metric from one line to many lines given as (n,d) base/dir arrays."""
    return _line_metric_rows(line.base, line.dir, np.asarray(bases, dtype=float),
                             np.asarray(dirs, dtype=float))


def _line_metric_rows(b1: np.ndarray, v1: np.ndarray, bases: np.ndarray,
                      dirs: np.ndarray) -> np.ndarray:
    return _direction_rows(dirs, v1) + _lines_min_distance_rows(b1, v1, bases, dirs)


def _lines_min_distance_rows(b1: np.ndarray, v1: np.ndarray, bases: np.ndarray,
                             dirs: np.ndarray) -> np.ndarray:
    """lines_min_distance from the line (b1, v1) to each (base, dir) row."""
    perp = _points_line_rows(bases, b1, v1)
    if v1.shape[0] == 2:
        cross = v1[0] * dirs[:, 1] - v1[1] * dirs[:, 0]
        return np.where(np.abs(cross) < 1e-12, perp, 0.0)
    n = np.cross(v1, dirs)
    nn = np.linalg.norm(n, axis=1)
    parallel = nn < 1e-12
    skew = np.abs(np.einsum("ij,ij->i", bases - b1, n)) / np.where(parallel, 1.0, nn)
    return np.where(parallel, perp, skew)


def line_box_chord(line: Line, box: Box) -> float:
    """Length of the intersection of the infinite line with the box."""
    if line.dim != box.dim:
        raise DimensionMismatch("line and box dimensions differ")
    b = box.frame @ (line.base - box.center)
    v = box.frame @ line.dir
    tmin, tmax = -np.inf, np.inf
    for i in range(box.dim):
        if abs(v[i]) < 1e-14:
            if abs(b[i]) > box.half_extents[i]:
                return 0.0
            continue
        t1 = (-box.half_extents[i] - b[i]) / v[i]
        t2 = (box.half_extents[i] - b[i]) / v[i]
        lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
        tmin = max(tmin, lo)
        tmax = min(tmax, hi)
    return float(max(0.0, tmax - tmin))


def lines_box_chords(bases: np.ndarray, dirs: np.ndarray, box: Box) -> np.ndarray:
    """Vectorized line_box_chord over (n,d) base/dir arrays."""
    B = (np.asarray(bases, dtype=float) - box.center) @ box.frame.T
    V = np.asarray(dirs, dtype=float) @ box.frame.T
    return _chords_from_local(B, V, box.half_extents[None])[0]


def _chords_from_local(B: np.ndarray, V: np.ndarray, half: np.ndarray,
                       reach=np.inf) -> np.ndarray:
    """Chord lengths from box-local coordinates B, V against S boxes at once.

    B and V are (..., n, d): the n lines in the local frame of one box, or of
    several with leading axes.  `half` is (S, d), one row of half-extents per
    box; the result is (..., S, n).  Every element goes through the same
    operations as in a call with one box and one line, so a chord does not
    depend on the other boxes or lines of the call.  `reach` bounds the line
    parameter to [-reach, reach] before clipping (a scalar or one value per
    line): np.inf for infinite lines, half the length for segments centred
    at B.
    """
    B = B[..., None, :, :]
    V = V[..., None, :, :]
    tmax = np.asarray(reach, dtype=float)
    tmin = -tmax
    dead = np.zeros(B.shape[:-3] + (half.shape[0], B.shape[-2]), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(B.shape[-1]):
            v = V[..., i]
            b = B[..., i]
            h = half[:, i, None]
            par = np.abs(v) < 1e-14
            dead |= par & (np.abs(b) > h)
            t1 = (-h - b) / v
            t2 = (h - b) / v
            tmin = np.where(par, tmin, np.maximum(tmin, np.minimum(t1, t2)))
            tmax = np.where(par, tmax, np.minimum(tmax, np.maximum(t1, t2)))
    chord = np.clip(tmax - tmin, 0.0, None)
    chord = np.where(np.isfinite(chord), chord, 0.0)
    return np.where(dead, 0.0, chord)


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array through one sort (numpy's hash path is far
    slower on long, repetitive integer key arrays)."""
    x = np.sort(x)
    new = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return x[new]


def _ranges(a: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The integer ranges [a[k], a[k] + lens[k]) concatenated."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(a - ends + lens, lens)


class _CellIndex:
    """Sparse index of the grid cells floor((P - origin) / side) of the rows
    of an (n, d) array P.

    A cell's key ranks each of its coordinates among the distinct cell
    coordinates on that axis, so keys fit int64 however far apart the points
    lie and the index holds occupied cells only.  `order` is the stable sort
    of the rows by key, `keys` the occupied cells' keys ascending, occupied
    cell k holds the sorted positions head[k]:head[k + 1], `cell` is each
    row's occupied-cell number and `cells` each row's cell coordinates.
    """

    def __init__(self, P: np.ndarray, side: float, origin=0.0):
        f = np.floor((P - origin) / side)
        if not np.all(np.abs(f) < 2.0**61):
            raise ValueError("cell coordinates exceed the int64 range")
        self.cells = f.astype(np.int64)
        n = self.cells.shape[0]
        self.vals = []  # per axis: the distinct cell coordinates, ascending
        key = np.zeros(n, dtype=np.int64)
        total = 1
        for col in self.cells.T.copy():  # contiguous columns search faster
            vals = _sorted_unique(col)
            total *= vals.size
            if total >= 2**62:
                raise ValueError("too many distinct cell coordinates for int64 keys")
            self.vals.append(vals)
            key *= vals.size
            key += np.searchsorted(vals, col)
        self.order = np.argsort(key, kind="stable")
        skey = key[self.order]
        new = np.ones(n, dtype=bool)
        np.not_equal(skey[1:], skey[:-1], out=new[1:])
        self.head = np.append(np.flatnonzero(new), n)
        self.keys = skey[new]
        self.cell = np.empty(n, dtype=np.intp)
        self.cell[self.order] = np.cumsum(new) - 1

    def cubes(self, c: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        """The sorted positions of the rows in the cells within Chebyshev
        distance r of each cell of c (cell coordinates, one row each):
        (positions, counts), each cell's positions ascending and the cells'
        concatenated in the order of c.

        Each outer axis enumerates only the coordinates that occur, as rank
        ranges; the cells of one outer rank tuple are one run of keys.  When
        a cell has more outer rank tuples than there are occupied cells (a
        wide cube over scattered coordinates), every occupied cell is tested
        instead, which bounds the temporaries by len(c) occupied cells.
        """
        m = c.shape[0]
        # per axis, the ranks [lo, hi) of the coordinates within r of c's
        ends = c.T[:, None] + np.array([[-r], [r + 1]])
        ranks = [np.searchsorted(v, x) for v, x in zip(self.vals, ends)]
        spans = [int((hi - lo).max(initial=0)) for lo, hi in ranks[:-1]]
        if math.prod(spans) > self.keys.size:
            occupied = self.cells[self.order[self.head[:-1]]]
            b = np.diff(self.head) * (np.abs(occupied - c[:, None]).max(axis=2) <= r)
            a = np.broadcast_to(self.head[:-1], b.shape)
            return _ranges(a.ravel(), b.ravel()), b.sum(axis=1)
        # one row per outer rank tuple offset, one column per cell of c
        key = np.zeros((1, m), dtype=np.int64)
        ok = np.ones((1, m), dtype=bool)
        for v, (lo, hi), span in zip(self.vals, ranks, spans):
            t = lo + np.arange(span)[:, None]
            key = (key[:, None] * v.size + t).reshape(-1, m)
            ok = (ok[:, None] & (t < hi)).reshape(-1, m)
        key *= self.vals[-1].size
        a, b = self.head[np.searchsorted(self.keys, key + ranks[-1][:, None])]
        b -= a
        b *= ok
        return _ranges(a.T.ravel(), b.T.ravel()), b.sum(axis=0)


def _greedy_net_size(X: np.ndarray, w: float, dist) -> int:
    """Size of the greedy net of the rows of X, taken in order.

    A row joins the net when `dist(kept, row)`, its distances to the rows
    already kept, are all >= w.  The kept rows fill a preallocated buffer.
    """
    if w <= 0:
        raise ValueError("w must be positive")
    kept = np.empty_like(X)
    k = 0
    for x in X:
        if k == 0 or np.min(dist(kept[:k], x)) >= w:
            kept[k] = x
            k += 1
    return k


def covering_number(items, w: float) -> int:
    """Size of a greedy maximal w-separated subset of the (n, d) array `items`.

    This is a constant-factor proxy for the w-covering number: the greedy net
    covers with w-balls (so it upper bounds the covering number) and any
    2w-separated subset lower bounds it.
    """
    return _greedy_net_size(np.asarray(items, dtype=float), w,
                            lambda C, x: np.linalg.norm(C - x, axis=1))


def direction_covering_number(dirs: np.ndarray, w: float) -> int:
    """Greedy covering count for directions identified up to sign."""
    return _greedy_net_size(np.asarray(dirs, dtype=float), w, _direction_rows)


def line_covering_number(lines, w: float) -> int:
    """Greedy covering count for a family of lines under line_metric."""
    X = np.array([(ln.base, ln.dir) for ln in lines], dtype=float)
    return _greedy_net_size(X, w, lambda C, x: _line_metric_rows(x[0], x[1], C[:, 0], C[:, 1]))


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, component by component in the same order
    (equal bit for bit, without np.cross's broadcasting set-up)."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a vector: the square root of its BLAS dot with itself."""
    return math.sqrt(x @ x)


def complete_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal frame (rows) whose last row is the given unit axis."""
    axis = np.asarray(axis, dtype=float)
    d = axis.shape[0]
    if d == 2:
        e1 = np.array([-axis[1], axis[0]])
        return np.vstack([e1, axis])
    pick = np.argmin(np.abs(axis))
    helper = np.zeros(3)
    helper[pick] = 1.0
    e1 = _cross3(axis, helper)
    e1 = e1 / _norm(e1)
    e2 = _cross3(axis, e1)
    return np.vstack([e1, e2, axis])
