"""Geometric primitives in cube coordinates: points, lines, boxes, greedy nets.

Points are plain float ndarrays of length d, d in {2, 3}.  Lines are stored
in point+direction form with the direction normalized to unit length and a
canonical sign (first nonzero coordinate positive), so that a line has a
unique representation.  All objects are immutable after construction and
every operation in this module is pure.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12      # unit-direction tolerance
FRAME_TOL = 1e-10     # orthonormal-frame tolerance
ON_LINE_TOL = 1e-9    # point-on-line tolerance


class DimensionMismatch(ValueError):
    """Raised when objects of different ambient dimension are combined."""


def _require_finite(kind: str, **params):
    """Raise ValueError naming the `kind` parameters that are not finite."""
    bad = [f"{name}={value}" for name, value in params.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"{kind} parameters must be finite, got {', '.join(bad)}")


def _require_normal(what: str, v: float) -> float:
    """v; FloatingPointError naming `what` when v is not a positive normal float."""
    if not sys.float_info.min <= v < math.inf:
        raise FloatingPointError(f"{what} is {float(v)!r}, not a positive normal float")
    return v


def _range_checked(what: str, value=lambda out: out):
    """Decorate a function: FloatingPointError when a step overflows or `what`,
    the value read from its result, is not a positive normal float."""
    def decorate(evaluate):
        @functools.wraps(evaluate)
        def checked(*args, **kwargs):
            try:
                v = value(out := evaluate(*args, **kwargs))
            except OverflowError:
                v = math.inf
            _require_normal(what, v)
            return out
        return checked
    return decorate


def _point_rows(P) -> np.ndarray:
    """P as an (n, 2) or (n, 3) float array; ValueError for any other shape."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] not in (2, 3):
        raise ValueError(f"points must be an (n, 2) or (n, 3) array, got shape {P.shape}")
    return P


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
    c = v.tolist()
    big = max(map(abs, c)) if c else 0.0
    if 2.0**-500 < big < 2.0**500:
        n = _norm(v)
    else:  # the squared norm may overflow or underflow: divide by the largest coordinate
        with np.errstate(over="ignore"):
            n = _norm(v)
        if (n == math.inf or n == 0.0) and 0.0 < big < math.inf and all(map(math.isfinite, c)):
            v = v / big
            n = _norm(v)
            c = v.tolist()
    if not math.isfinite(n) or n == 0.0:
        raise ValueError("direction must be a nonzero finite vector")
    if abs(n - 1.0) > 1e-13:  # keep already-unit vectors bit-stable
        v = v / n
        c = v.tolist()
    for x in c:
        if abs(x) > 1e-14:
            if x < 0:
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


def point_line_distance(p, line: Line) -> float:
    """Euclidean distance from p to the infinite line."""
    p = as_point(p, line.dim)
    u = p - line.base
    t = float(u @ line.dir)
    return float(np.linalg.norm(u - t * line.dir))


def _points_lines_block(P: np.ndarray, bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distances from the rows of P to each line (bases[j], unit dirs[j]): (m, n).

    The projection is one (n, d) x d BLAS product per line (a stacked
    matmul on the C-contiguous (m, n, d) differences), so a row does not
    depend on the other lines of the block.  Everything else runs one
    coordinate plane at a time.  Temporaries are (m, n, d); callers bound
    m * n.  Only the all-pairs sweep `_point_line_blocks` calls it.
    """
    U = _subtract_planes(P[None], bases[:, None])
    t = np.matmul(U, dirs[:, :, None])[..., 0]
    return _plane_norms(u - t * v for u, v in zip(_planes(U), _planes(dirs[:, None])))


def _point_line_blocks(P: np.ndarray, bases: np.ndarray, dirs: np.ndarray):
    """(lo, D) over the lines in order, D[k, i] the `_points_lines_block`
    distance from P[i] to line lo + k: at most _CHUNK (line, point) pairs a
    block, or one line when P has more rows.  The one all-pairs sweep."""
    step = max(1, _CHUNK // max(1, P.shape[0]))
    for lo in range(0, bases.shape[0], step):
        yield lo, _points_lines_block(P, bases[lo:lo + step], dirs[lo:lo + step])


def _point_lines_rows(p: np.ndarray, bases: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distances from the point p (or from each row of p) to each line
    (bases[j], unit dirs[j]), elementwise with no BLAS product: entry j
    depends only on its point and line j.  The line may be one row broadcast
    to the shape of the points (`np.broadcast_to`)."""
    U = _subtract_planes(p, bases)
    t = np.einsum("ij,ij->i", U, dirs)
    return _plane_norms(u - t * v for u, v in zip(_planes(U), _planes(dirs)))


def _direction_rows(dirs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """direction_distance from v to each row of `dirs` (or, v an array of
    rows, from each row of v to the same row of `dirs`)."""
    pairs = list(zip(_planes(dirs), _planes(v)))
    return np.minimum(_plane_norms(a - b for a, b in pairs), _plane_norms(a + b for a, b in pairs))


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


def _skew_gaps(b1: np.ndarray, v1: np.ndarray, bases: np.ndarray,
               dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parallel, gap) from each line (b1, v1) to the line (base, dir) it
    meets under broadcasting over the leading axes: gap is lines_min_distance
    for lines that are not parallel (0 in 2D); parallel ones need the point
    distance."""
    if v1.shape[-1] == 2:
        cross = v1[..., 0] * dirs[..., 1] - v1[..., 1] * dirs[..., 0]
        return np.abs(cross) < 1e-12, np.zeros(cross.shape)
    n = np.cross(v1, dirs)
    nn = _row_norms(n)
    parallel = nn < 1e-12
    rel = _subtract_planes(bases, b1)
    return parallel, np.abs(np.einsum("...j,...j->...", rel, n)) / np.where(parallel, 1.0, nn)


def _line_metric_pairs(b1: np.ndarray, v1: np.ndarray, bases: np.ndarray,
                       dirs: np.ndarray) -> np.ndarray:
    """The line metric pair by pair, broadcasting over the leading axes: each
    entry is the metric from a line (b1, v1) to a line (base, dir), from that
    pair alone: the direction distance plus the skew-line gap, or, for
    parallel pairs, the distance from the base to the first line
    (`_point_lines_rows`)."""
    parallel, gap = _skew_gaps(b1, v1, bases, dirs)
    if parallel.any():
        shape = parallel.shape + v1.shape[-1:]
        gap[parallel] = _point_lines_rows(*(np.broadcast_to(X, shape)[parallel]
                                            for X in (bases, b1, v1)))
    return _direction_rows(dirs, v1) + gap


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


def _clip(lo, hi, ok, off, coef, bound, tol):
    """Clip the parameter intervals [lo, hi] to the slab |off + coef * y| <=
    bound, elementwise; a row with |coef| < tol is parallel to the slab: its
    interval stays and `ok` drops it when |off| > bound.  Returns (lo, hi,
    ok)."""
    par = np.abs(coef) < tol
    ok = ok & ~(par & (np.abs(off) > bound))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-bound - off) / coef
        t2 = (bound - off) / coef
    lo = np.where(par, lo, np.maximum(lo, np.minimum(t1, t2)))
    hi = np.where(par, hi, np.minimum(hi, np.maximum(t1, t2)))
    return lo, hi, ok


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
    ok = np.ones(B.shape[:-3] + (half.shape[0], B.shape[-2]), dtype=bool)
    for i in range(B.shape[-1]):
        tmin, tmax, ok = _clip(tmin, tmax, ok, B[..., i], V[..., i], half[:, i, None], 1e-14)
    chord = np.clip(tmax - tmin, 0.0, None)
    chord = np.where(np.isfinite(chord), chord, 0.0)
    return np.where(ok, chord, 0.0)


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
        with np.errstate(over="ignore"):  # an overflow fails the range check below
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
        """The occupied cells within Chebyshev distance r of each cell of c
        (cell coordinates, one row each): (cell numbers, counts), each cube's
        cells ascending and the cubes' concatenated in the order of c.

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
            near = np.abs(occupied - c[:, None]).max(axis=2) <= r
            return np.nonzero(near)[1], near.sum(axis=1)
        # one row per outer rank tuple offset, one column per cell of c
        key = np.zeros((1, m), dtype=np.int64)
        ok = np.ones((1, m), dtype=bool)
        for v, (lo, hi), span in zip(self.vals, ranks, spans):
            t = lo + np.arange(span)[:, None]
            key = (key[:, None] * v.size + t).reshape(-1, m)
            ok = (ok[:, None] & (t < hi)).reshape(-1, m)
        key *= self.vals[-1].size
        a, b = np.searchsorted(self.keys, key + ranks[-1][:, None])
        b -= a
        b *= ok
        return _ranges(a.T.ravel(), b.T.ravel()), b.sum(axis=0)

    def rows(self, cells: np.ndarray) -> np.ndarray:
        """The sorted positions of the rows of the occupied cells `cells`, in order."""
        return _ranges(self.head[cells], self.head[cells + 1] - self.head[cells])

    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(at, nbr): nbr[at[k]:at[k + 1]] are the occupied cells within
        Chebyshev distance 1 of occupied cell k, ascending."""
        nbr, counts = self.cubes(self.cells[self.order[self.head[:-1]]], 1)
        return np.concatenate([[0], np.cumsum(counts)]), nbr


# elements of one block of the vectorized passes (the box counter's
# candidates x scales x members, the nets' and close pairs' pairs): about ten
# float/bool temporaries of this size, so roughly 1 MB in flight
_CHUNK = 1 << 14
# the greedy nets decide their rows in blocks of _NET_BLOCK, in input order
_NET_BLOCK = 256
# rows with a coordinate beyond _TAME (or not finite) meet every kept row:
# below it no pair distance of the nets is NaN, so the cell filter is exact
_TAME = 2.0**250


def _spans(counts: np.ndarray, cap: int):
    """Consecutive ranges [s0, s1) of `counts`, each summing to at most cap
    or holding one item."""
    ends = np.cumsum(counts)
    s0 = 0
    while s0 < counts.size:
        s1 = max(s0 + 1, int(np.searchsorted(ends, ends[s0] - counts[s0] + cap, "right")))
        yield s0, s1
        s0 = s1


def _cell_pairs(q, at, nbr, start, count):
    """(query, slot) blocks of at most _CHUNK pairs, or one query alone:
    query i, in cell q[i], with the slots start[c]:start[c] + count[c] of
    each cell c of nbr[at[q[i]]:at[q[i] + 1]]; queries in order, none split.
    Memory is O(_CHUNK) plus one query's cells and pairs."""
    a, m = at[q], at[q + 1] - at[q]
    for s0, s1 in _spans(m, _CHUNK // 2):  # k and off below: at most _CHUNK entries in all
        c = nbr[_ranges(a[s0:s1], m[s0:s1])]  # each query's cells, expanded once
        k = count[c]
        off = np.concatenate([[0], np.cumsum(k)])  # pairs before each cell
        lo = np.concatenate([[0], np.cumsum(m[s0:s1])])  # query s0 + i: cells c[lo[i]:lo[i + 1]]
        first = off[lo]  # and pairs first[i]:first[i + 1]
        off = start[c] - off[:-1]  # each cell's first slot minus its first pair
        del c  # only k and off stay alive while the blocks are consumed
        for t0, t1 in _spans(np.diff(first), _CHUNK):
            cells = slice(lo[t0], lo[t1])
            yield (np.repeat(np.arange(s0 + t0, s0 + t1), np.diff(first[t0:t1 + 1])),
                   np.arange(first[t0], first[t1]) + np.repeat(off[cells], k[cells]))


class _NetCells:
    """Cells of the index points of a greedy net, and registries of rows by cell.

    Row i queries the cell of pts[i]; a registered row sits in the cell of
    pts[i], and also of -pts[i] when `antipodal`.  The cells are those of
    `_CellIndex` from the index points' low corner, with side
    max(w, extent 2^-40, 2^-500) (1 + 2^-8), extent the longest side of
    their bounding box: rounding the cell coordinates errs by at most
    4 extent 2^-53 in distance, so two index points more than one cell apart
    on an axis are at computed distance >= w, and their coordinate
    differences are too large for the squares to underflow.  So a pair of
    tame rows whose cells are not neighbours cannot block.  Wild rows (not
    `tame`) share one cell, added to the index's `neighbours()` next to all.
    """

    def __init__(self, pts: np.ndarray, tame: np.ndarray, w: float, antipodal: bool):
        n = pts.shape[0]
        T = np.flatnonzero(tame)
        Q = np.concatenate([pts[T], -pts[T]]) if antipodal else pts[T]
        if T.size:
            lo = Q.min(axis=0)
            extent = float((Q.max(axis=0) - lo).max())
            side = max(w, extent * 2.0**-40, 2.0**-500) * (1.0 + 2.0**-8)
            while True:
                try:
                    index = _CellIndex(Q, side, lo)
                    break
                except ValueError:  # too many distinct cells for int64 keys: coarser cells
                    side *= 1024.0
            (at, nbr), base, cell = index.neighbours(), index.head[:-1], index.cell
        else:
            at, (nbr, base, cell) = np.zeros(1, dtype=np.intp), np.zeros((3, 0), dtype=np.intp)
        wild = n - T.size
        k = base.size  # the wild rows' cell
        if wild:
            nbr = np.concatenate([np.insert(nbr, at[1:], k), np.arange(k + 1)])
            at = np.append(at + np.arange(k + 1), at[-1] + 2 * k + 1)
        self.at, self.nbr = at, nbr
        self.base = np.append(base, Q.shape[0])  # each cell's first slot
        self.size = Q.shape[0] + wild
        self.query = np.full(n, k, dtype=np.intp)
        self.query[T] = cell[:T.size]
        self.home = np.full((n, 2 if antipodal else 1), -1, dtype=np.intp)
        self.home[T] = cell.reshape(self.home.shape[1], -1).T
        self.home[~tame, 0] = k

    def registry(self) -> tuple[np.ndarray, np.ndarray]:
        """An empty registry: (slots, count per cell); cell c holds the rows
        slots[base[c]:base[c] + count[c]]."""
        return np.empty(self.size, dtype=np.intp), np.zeros(self.base.size, dtype=np.intp)

    def register(self, reg, rows: np.ndarray) -> np.ndarray:
        """Add rows to a registry; returns the cells they went to."""
        slots, count = reg
        c = self.home[rows].ravel()
        r = np.repeat(rows, self.home.shape[1])[c >= 0]
        c = c[c >= 0]
        by = np.argsort(c, kind="stable")
        c, r = c[by], r[by]
        slots[self.base[c] + count[c] + np.arange(c.size) - np.searchsorted(c, c)] = r
        count += np.bincount(c, minlength=count.size)
        return c

    def pairs(self, reg, rows: np.ndarray):
        """(I, J) blocks of `_cell_pairs`: every row I of `rows` with every
        row J of the registry in its neighbour cells."""
        slots, count = reg
        for i, s in _cell_pairs(self.query[rows], self.at, self.nbr, self.base, count):
            yield rows[i], slots[s]


def _greedy_net_size(pts: np.ndarray, w: float, pair_dist, tame: np.ndarray,
                     antipodal: bool = False) -> int:
    """Size of the greedy net of n rows, taken in input order.

    A row joins the net when its distances to the rows already kept are all
    >= w: the first row joins, a NaN distance blocks and a distance equal to
    w does not.  pair_dist(I, J) gives the distances of the pairs (row I[k],
    kept row J[k]), elementwise.  Between tame rows it must be at least the
    Euclidean distance of their index points pts[i] and pts[j] (or -pts[j],
    when `antipodal`), as computed, so only pairs in neighbouring cells of
    `_NetCells` are measured.

    Each block of rows is first checked against the rows kept before it,
    then its survivors against each other, in order.  Memory: O(n) plus one
    `_cell_pairs` block (or one row's pairs); time at worst n x kept pairs.
    """
    w = float(w)
    if not w > 0:
        raise ValueError("w must be positive")
    n = pts.shape[0]
    cells = _NetCells(pts, tame, w, antipodal)
    kept, block = cells.registry(), cells.registry()
    size = 0
    for b0 in range(0, n, _NET_BLOCK):
        rows = np.arange(b0, min(n, b0 + _NET_BLOCK))
        blocked = np.zeros(rows.size, dtype=bool)
        for I, J in cells.pairs(kept, rows):
            blocked[I[~(pair_dist(I, J) >= w)] - b0] = True
        S = rows[~blocked]
        touched = cells.register(block, S)
        late, early = [], []
        for I, J in cells.pairs(block, S):
            before = J < I
            I, J = I[before], J[before]
            hit = ~(pair_dist(I, J) >= w)
            late.append(I[hit])
            early.append(J[hit])
        block[1][touched] = 0
        S = S[_keep_in_order(S, late, early)]
        cells.register(kept, S)
        size += S.size
    return size


def _keep_in_order(S: np.ndarray, late: list, early: list) -> np.ndarray:
    """Which of the rows S (ascending) the greedy keeps when row late[k]
    conflicts with the earlier row early[k] (lists of arrays): a row is kept
    unless an earlier kept row conflicts with it."""
    flags = [True] * S.size
    if late:
        li = np.searchsorted(S, np.concatenate(late))
        lj = np.searchsorted(S, np.concatenate(early))
        by = np.argsort(li, kind="stable")  # a row's earlier rows are decided first
        for l, e in zip(li[by].tolist(), lj[by].tolist()):
            if flags[e]:
                flags[l] = False
    return np.array(flags, dtype=bool)


def _tame(*arrays: np.ndarray) -> np.ndarray:
    """Rows whose coordinates in every array are at most _TAME in magnitude."""
    return np.logical_and.reduce([(np.abs(a) <= _TAME).all(axis=1) for a in arrays])


def _net_rows(items) -> np.ndarray:
    X = np.asarray(items, dtype=float)
    return X.reshape(X.shape[0], -1) if X.size else np.zeros((0, 1))


def covering_number(items, w: float) -> int:
    """Size of a greedy maximal w-separated subset of the (n, d) array `items`.

    This is a constant-factor proxy for the w-covering number: the greedy net
    covers with w-balls (so it upper bounds the covering number) and any
    2w-separated subset lower bounds it.
    """
    X = _net_rows(items)
    return _greedy_net_size(X, w, lambda I, J: _row_norms(X[J] - X[I]), _tame(X))


def direction_covering_number(dirs: np.ndarray, w: float) -> int:
    """Greedy covering count for directions identified up to sign."""
    D = _net_rows(dirs)
    return _greedy_net_size(D, w, lambda I, J: _direction_rows(D[J], D[I]), _tame(D),
                            antipodal=True)


def line_covering_number(lines, w: float) -> int:
    """Greedy covering count for a family of lines under line_metric.

    The line metric is the direction distance plus a non-negative term, so
    the net indexes the directions up to sign.
    """
    lines = list(lines)
    B = _net_rows([ln.base for ln in lines])
    V = _net_rows([ln.dir for ln in lines])
    return _greedy_net_size(V, w, lambda I, J: _line_metric_pairs(B[I], V[I], B[J], V[J]),
                            _tame(B, V), antipodal=True)


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis of (..., 3) arrays, component by component
    in the same order (equal bit for bit, without np.cross's broadcasting
    set-up); the result is C-contiguous."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _planes(X: np.ndarray) -> list:
    """The coordinate planes X[..., i] of a (..., d) array (views)."""
    return [X[..., i] for i in range(X.shape[-1])]


def _subtract_planes(A: np.ndarray, B) -> np.ndarray:
    """A - B, broadcast over the leading axes, as a new C-contiguous array
    filled one coordinate plane at a time: the same bits as the broadcast
    A - B, without numpy's inner loop of d elements per row."""
    A, B = np.asarray(A), np.asarray(B)
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    for i, o in enumerate(_planes(out)):
        np.subtract(A[..., i], B[..., i], out=o)
    return out


def _plane_norms(planes) -> np.ndarray:
    """Square root of the sum of the squared planes, summed in order as
    ((x0*x0 + x1*x1) + x2*x2): for fewer than 8 planes, the order in which
    numpy's add.reduce sums a row of np.linalg.norm over the last axis."""
    planes = iter(planes)
    x = next(planes)
    s = x * x
    for x in planes:
        s += x * x
    return np.sqrt(s, out=s)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm over the last axis of X (1 to 7 coordinates), bit for
    bit, one coordinate plane at a time."""
    return _plane_norms(_planes(X))


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a vector: the square root of its BLAS dot with itself."""
    return math.sqrt(x @ x)


def _norms(x: np.ndarray) -> np.ndarray:
    """`_norm` of every row of x (norms over the last axis), bit for bit:
    np.vecdot takes the same BLAS dot per row as `x[i] @ x[i]` (elementwise
    sums and einsum round differently)."""
    return np.sqrt(np.vecdot(x, x))


_EYE3 = np.eye(3)


def complete_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal frame (rows) whose last row is the given unit axis; over
    the last axis of a (..., d) array, one (d, d) frame per row."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape[-1] == 2:
        return np.stack([np.stack([-axis[..., 1], axis[..., 0]], axis=-1), axis], axis=-2)
    # helper: the coordinate axis of the smallest |component| (the first on ties)
    e1 = _cross3(axis, _EYE3[np.abs(axis).argmin(axis=-1)])
    e1 = e1 / _norms(e1)[..., None]
    return np.stack([e1, _cross3(axis, e1), axis], axis=-2)
