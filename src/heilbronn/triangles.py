"""Minimum triangle area functionals and the pairing pipeline.

The exact minimizer comes in two flavours: a cubic brute force and a pruned
search that first settles all small-diameter triangles with a grid pass and
then catches thin large-diameter triangles through near-parallel direction
hashing from every apex.  Both return the same minimal value on any input.

The pipeline builds disjoint close point pairs, turns them into a point-line
configuration, and reads off a small triangle from the configuration's
minimal distance.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .configurations import _nearest_point_line
from .geometry import _CellIndex, _cell_pairs, _planes, _point_rows, _row_norms, \
    _sorted_unique, _subtract_planes, canonical_direction


@dataclass(frozen=True)
class TriangleWitness:
    """Index triple (i < j < k) into the point set and its triangle area."""

    indices: tuple[int, int, int]
    area: float


@dataclass(frozen=True)
class PairPipelineReport:
    """Diagnostics from the close-pair to point-line pipeline."""

    n_pairs: int
    max_pair_length: float
    config_distance: float
    area_bound: float


def triangle_area(a, b, c) -> float:
    """Area of the triangle abc via the cross product."""
    a = np.asarray(a, dtype=float)
    u = np.asarray(b, dtype=float) - a
    v = np.asarray(c, dtype=float) - a
    if a.shape[0] == 2:
        return abs(u[0] * v[1] - u[1] * v[0]) / 2.0
    return float(np.linalg.norm(np.cross(u, v)) / 2.0)


# entries scored at once: (block, triple) pairs in the grid pass, (apex,
# shift, point) keys in the direction hash.  They keep the temporaries of
# min_triangle_fast near 1 MB; a single block or apex larger than that is
# scored on its own
_LOCAL_CHUNK = 1 << 13
_APEX_CHUNK = 1 << 14
# entries of one row slice of the brute force's (m, m) block from an apex:
# at least 149^2, so the sets of up to 150 points take one slice an apex
_SLICE = 1 << 15


def _doubled_areas(u, v):
    """|u x v| for component stacks u, v of shape (d, ...) (2D: the scalar).

    Every doubled triangle area is computed here (brute force blocks, grid
    triples, direction candidates), so a triangle scored from the same two
    edge vectors has the same bits whichever routine scores it.
    """
    if len(u) == 2:
        c = u[0] * v[1]
        c -= u[1] * v[0]
        return np.abs(c, out=c)
    # in place, in the operation order of sqrt(cx*cx + cy*cy + cz*cz)
    cx = u[1] * v[2]
    cx -= u[2] * v[1]
    cy = u[2] * v[0]
    cy -= u[0] * v[2]
    cz = u[0] * v[1]
    cz -= u[1] * v[0]
    cx *= cx
    cy *= cy
    cx += cy
    cz *= cz
    cx += cz
    return np.sqrt(cx, out=cx)


def _require_area_range(P: np.ndarray) -> None:
    """FloatingPointError when `_doubled_areas` could overflow or underflow
    on P: its intermediates reach 2 s^2 in 2D and 12 s^4 in 3D, s the
    largest coordinate spread of P, and a spread s > 0 whose s^2 (2D) or s^4
    (3D) is below the smallest normal float leaves areas that round to 0 or
    lose their bits.  ValueError when a point is not finite."""
    if not np.isfinite(P).all():
        raise ValueError("points must be finite")
    with np.errstate(over="ignore"):
        s = float((P.max(axis=0) - P.min(axis=0)).max()) if P.size else 0.0
    if not math.isfinite(2.0 * s * s if P.shape[1] == 2 else 12.0 * (s * s) * (s * s)):
        raise FloatingPointError(f"points spread over {s:.3g}: triangle areas overflow")
    if 0.0 < s and (s * s if P.shape[1] == 2 else (s * s) * (s * s)) < sys.float_info.min:
        raise FloatingPointError(f"points spread over {s:.3g}: triangle areas underflow")


@lru_cache(maxsize=32)
def _triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only np.triu_indices(m, 1), built once per size."""
    ju, ku = np.triu_indices(m, 1)
    ju.flags.writeable = ku.flags.writeable = False
    return ju, ku


def _upper_min(B: np.ndarray) -> tuple[int, int, float]:
    """First row-major minimum of |B_j x B_k| over the rows j < k of B, as
    (j, k, value).  Rows r0:r1 are scored against all columns, about
    _SLICE entries at a time, with the entries k <= j masked by inf; the
    first strictly smaller slice minimum wins."""
    m = B.shape[0]
    X = np.ascontiguousarray(B.T)
    step = max(1, _SLICE // m)
    best = (0, 1, np.inf)
    for r0 in range(0, m - 1, step):
        C = _doubled_areas(X[:, r0:r0 + step, None], X[:, None, :])
        np.copyto(C, np.inf, where=np.tri(C.shape[0], m, r0, dtype=bool))
        j, k = divmod(int(np.argmin(C)), m)
        if C[j, k] < best[2]:
            best = (r0 + j, k, float(C[j, k]))
    return best


def _brute_doubled(P: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """Lexicographically first minimal triple of P and twice its area."""
    n = P.shape[0]
    best2 = np.inf
    witness = (0, 1, 2)
    for i in range(n - 2):
        j, k, block_min = _upper_min(P[i + 1:] - P[i])
        if block_min < best2:
            best2 = block_min
            witness = (i, i + 1 + j, i + 1 + k)
    return witness, best2


def min_triangle_brute(P) -> TriangleWitness:
    """Exact minimizer over all C(n,3) triples, lexicographic tie-break.
    FloatingPointError when the areas could overflow or underflow
    (`_require_area_range`)."""
    P = _point_rows(P)
    if P.shape[0] < 3:
        raise ValueError("need at least 3 points")
    _require_area_range(P)
    witness, best2 = _brute_doubled(P)
    return TriangleWitness(indices=witness, area=best2 / 2.0)


def _cell_blocks(P: np.ndarray, cell: float) -> tuple[np.ndarray, np.ndarray]:
    """Members of every occupied grid cell's 3^d block of cells.

    Returns (members, sizes): one block per occupied cell, the cells in order
    of their smallest point index, each block's point indices ascending and
    concatenated in `members`.
    """
    n = P.shape[0]
    index = _CellIndex(P, cell)
    first = np.sort(index.order[index.head[:-1]])  # each cell's smallest index, ascending
    cells, counts = index.cubes(index.cells[first], 1)
    sizes = np.add.reduceat(np.diff(index.head)[cells], np.cumsum(counts) - counts)
    # sort each block's members: block * n + index, then the index back
    members = np.repeat(np.arange(first.size, dtype=np.int64) * n, sizes)
    members += index.order[index.rows(cells)]
    members.sort()
    members %= n
    return members, sizes


def _n_triples(m: int) -> int:
    return m * (m - 1) * (m - 2) // 6


@lru_cache(maxsize=1)
def _colex_triples(limit: int) -> np.ndarray:
    """Rows (i, j, k), i < j < k < m, for the largest m with at most `limit`
    triples, ordered by (k, j, i): the C(t, 3) triples of any t <= m come
    first.  Read-only."""
    m = 3
    while _n_triples(m + 1) <= limit:
        m += 1
    below = np.tri(m, m, -1, dtype=bool)
    k, j, i = np.nonzero(below[:, :, None] & below[None, :, :])
    out = np.stack([i, j, k])
    out.flags.writeable = False
    return out


def _block_min_doubled(P: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Twice the minimal triangle area of every block (inf below 3 points).

    Blocks of equal size are scored together, a chunk of blocks at a time,
    over all their triples; a triangle's doubled area depends only on its
    sorted index triple, so the minimum has the bits of the brute force on
    the block.
    """
    X = np.ascontiguousarray(P.T)
    mins = np.full(sizes.size, np.inf)
    starts = np.cumsum(sizes) - sizes
    tri = _colex_triples(_LOCAL_CHUNK)
    for m in np.unique(sizes[sizes >= 3]).tolist():
        blocks = np.flatnonzero(sizes == m)
        t = _n_triples(m)
        if t > _LOCAL_CHUNK:
            for b in blocks.tolist():
                mins[b] = _brute_doubled(P[members[starts[b]:starts[b] + m]])[1]
            continue
        ij = tri[0, :t] * m + tri[1, :t]
        ik = tri[0, :t] * m + tri[2, :t]
        step = max(1, _LOCAL_CHUNK // t)
        for c in range(0, blocks.size, step):
            chunk = blocks[c:c + step]
            Xc = X[:, members[starts[chunk, None] + np.arange(m)]]  # (d, g, m)
            # D[., g, i, j] = p_j - p_i, the rows of the brute force's block
            D = (Xc[:, :, None, :] - Xc[:, :, :, None]).reshape(X.shape[0], chunk.size, m * m)
            mins[chunk] = _doubled_areas(D[:, :, ij], D[:, :, ik]).min(axis=1)
    return mins


def _local_min_pass(P: np.ndarray, cell: float) -> TriangleWitness:
    """Exact minimum over triangles of diameter <= cell via 3^d block sweeps.

    The witness is that of the brute force on the first block (cells in
    order of their smallest point index) that holds the minimum: its
    lexicographically first minimal triple.
    """
    members, sizes = _cell_blocks(P, cell)
    areas = _block_min_doubled(P, members, sizes) / 2.0
    b = int(np.argmin(areas))
    if not areas[b] < np.inf:
        return TriangleWitness(indices=(0, 1, 2), area=np.inf)
    start = int(sizes[:b].sum())
    idx = members[start:start + sizes[b]]
    (i, j, k), best2 = _brute_doubled(P[idx])
    return TriangleWitness(indices=(int(idx[i]), int(idx[j]), int(idx[k])), area=best2 / 2.0)


def _hash_pairs(rel: np.ndarray, norms: np.ndarray, h: float,
                shifts: np.ndarray):
    """Keys (a * m + t) * m + u, t < u, ascending and without repeats, of the
    positions t, u of row a of `rel` (shape (A, m, d), vectors from apex a)
    whose directions, folded to a half-sphere, share a cell of side h of one
    of the shifted grids.  The packed int64 cell keys wrap around for tiny h,
    and two points are paired exactly when their packed keys are equal.

    Returns None instead when A > 1 and the runs of 3 or more equal keys
    hold more than 2 * _APEX_CHUNK pairs; one apex at a time then keeps the
    candidate lists to the size of a single apex's.
    """
    A, m, _ = rel.shape
    n_shift = shifts.shape[0]
    dirs = [x / norms for x in _planes(rel)]
    flip = np.where(dirs[0] < 0, -1.0, 1.0)
    flip = np.where(np.abs(dirs[0]) < 1e-14, np.where(dirs[1] < 0, -1.0, 1.0), flip)
    packed = np.empty((A, n_shift, m), dtype=np.int64)
    for ax, x in enumerate(dirs):
        x *= flip
        x /= h
        k = np.floor(x[:, None, :] + shifts[:, None, ax]).astype(np.int64)
        if ax:
            packed *= 1_000_003
            packed += k
        else:
            packed[...] = k
    packed *= n_shift
    packed += np.arange(n_shift)[:, None]
    # equal packed keys lie in one (apex, shift) row, so each row sorts alone
    rows = packed.reshape(A * n_shift, m)
    order = np.argsort(rows, axis=-1)
    srt = np.take_along_axis(rows, order, axis=-1)
    # eq[r, p + 1]: sorted positions p and p + 1 of row r share a key
    eq = np.zeros((A * n_shift, m + 1), dtype=bool)
    np.equal(srt[:, 1:], srt[:, :-1], out=eq[:, 1:m])
    eq = eq.ravel()
    f = np.flatnonzero(eq)
    before, after = eq[f - 1], eq[f + 1]
    r, p = np.divmod(f, m + 1)
    run_start, run_end = ~before & after, before & ~after
    length = f[run_end] - f[run_start] + 2
    if A > 1 and int((length * (length - 1) // 2).sum()) > 2 * _APEX_CHUNK:
        return None
    # a pair alone with its key; runs of 3 or more give all their pairs
    flat = order.ravel()
    lone = ~(before | after)
    at = r[lone] * m + p[lone] - 1
    t, u, a = [flat[at]], [flat[at + 1]], [r[lone] // n_shift]
    first = r[run_start] * m + p[run_start] - 1
    for size in np.unique(length).tolist():
        sel = length == size
        grp = flat[first[sel, None] + np.arange(size)]
        ju, ku = _triu_pairs(size)
        t.append(grp[:, ju].ravel())
        u.append(grp[:, ku].ravel())
        a.append(np.repeat(r[run_start][sel] // n_shift, ju.size))
    t, u, a = np.concatenate(t), np.concatenate(u), np.concatenate(a)
    return _sorted_unique((a * m + np.minimum(t, u)) * m + np.maximum(t, u))


def _apex_groups(P: np.ndarray, rows: int):
    """(apices, others, rel, norms) for blocks of up to `rows` apices in
    index order: `others` holds, per apex, the indices of the points more
    than 1e-15 from it (ascending, the same count in every row), `rel` their
    vectors from the apex and `norms` the lengths.  An apex with a point
    within 1e-15 comes alone, and one with fewer than 2 others is left out.
    """
    n = P.shape[0]
    base = np.arange(n - 1)
    for start in range(0, n, rows):
        ia = np.arange(start, min(start + rows, n))
        others = base + (base >= ia[:, None])
        rel = _subtract_planes(P[others], P[ia, None, :])
        norms = _row_norms(rel)
        ok = norms > 1e-15
        if ok.all():
            yield ia, others, rel, norms
            continue
        for t in range(ia.size):
            keep = ok[t]
            if np.count_nonzero(keep) >= 2:
                yield (ia[t:t + 1], others[t, keep][None], rel[t, keep][None],
                       norms[t, keep][None])


def _apex_scan(P, group, h, shifts, best, witness):
    """Run the direction pass over one group of apices from the incumbent
    (best, witness); returns the new incumbent.

    Candidate areas are scored for the whole group at once, then replayed
    apex by apex in the order and with the comparisons of a scalar loop.
    """
    ia, others, rel, norms = group
    key = _hash_pairs(rel, norms, h, shifts)
    if key is None:
        for r in range(ia.size):
            best, witness = _apex_scan(P, tuple(x[r:r + 1] for x in group), h,
                                       shifts, best, witness)
        return best, witness
    A, m, d = rel.shape
    at, hi = np.divmod(key, m)
    a, lo = np.divmod(at, m)
    flat = rel.reshape(-1, d)
    vals = _doubled_areas(flat[at].T, flat[a * m + hi].T) / 2.0
    # the incumbent only falls, so this keeps every pair the replay can score
    keep = vals <= best * (1.0 + 1e-9)
    if not keep.any():
        return best, witness
    a, vals = a[keep], vals[keep]
    tri = np.sort(np.stack([ia[a], others[a, lo[keep]], others[a, hi[keep]]]), axis=0)
    base = P[tri[0]]
    cand = _doubled_areas((P[tri[1]] - base).T, (P[tri[2]] - base).T) / 2.0
    cut = np.flatnonzero(np.diff(a)) + 1
    for s, e in zip([0] + cut.tolist(), cut.tolist() + [a.size]):
        # the filter uses the incumbent at the start of the apex, the update
        # is strict: the first minimal candidate below the incumbent wins
        scored = s + np.flatnonzero(vals[s:e] <= best * (1.0 + 1e-9))
        if scored.size:
            win = int(scored[np.argmin(cand[scored])])
            if cand[win] < best:
                best = float(cand[win])
                witness = tuple(int(x) for x in tri[:, win])
    return best, witness


def min_triangle_fast(P) -> TriangleWitness:
    """Same minimal value as min_triangle_brute with grid/direction pruning.

    Every triangle beating the incumbent either has small diameter (caught by
    the local grid pass) or, seen from the vertex between its two longest
    sides, spans a near-degenerate angle; those apex direction pairs are
    found by hashing normalized directions on a grid of the angular
    threshold.

    Ties are broken as follows, so the witness is a function of the input
    alone.  Grid pass: cells of side n^(-1/d), at least 1e-6 and at least
    2^-52 times the largest |coordinate|, are taken in order of their
    smallest point index; the first whose 3^d block holds the smallest area
    wins, with the lexicographically first minimal triple of that block.
    Direction pass: apices in index order, and for each apex its hashed
    pairs in order of their point indices; a pair is scored only if its
    apex-based area is at most (1 + 1e-9) times the incumbent at the start of
    that apex, and it replaces the incumbent only if its area, in the brute
    force's formula, is strictly smaller.  Sets of at most 120 points go to
    the brute force, whose tie rule (the lexicographically first minimal
    triple) can pick another witness.  Points whose areas could overflow or
    underflow raise FloatingPointError, as in the brute force.
    """
    P = _point_rows(P)
    n, d = P.shape
    if n < 3:
        raise ValueError("need at least 3 points")
    _require_area_range(P)
    if n <= 120:
        return min_triangle_brute(P)

    # |x| / cell <= 2^52, so cell coordinates stay exact and within int64
    cell = max(n ** (-1.0 / d), 1e-6, 2.0**-52 * float(np.abs(P).max()))
    local = _local_min_pass(P, cell)
    best, witness = local.area, local.indices
    if best == 0.0:
        return TriangleWitness(indices=witness, area=0.0)

    # sin_thresh <= 1 (also when the grid pass found nothing), so h <= 1.5
    sin_thresh = min(1.0, 4.0 * best / (cell * cell))
    h = 1.5 * sin_thresh  # chordal hash cell; 2 sin(theta/2) <= sqrt(2) sin(theta)
    shifts = np.array(np.meshgrid(*([[0.0, 0.5]] * d), indexing="ij")).reshape(d, -1).T
    rows = max(1, _APEX_CHUNK // (shifts.shape[0] * (n - 1)))
    for group in _apex_groups(P, rows):
        best, witness = _apex_scan(P, group, h, shifts, best, witness)
    return TriangleWitness(indices=witness, area=float(best))


# the computed cell of a point can sit a few roundings across a cell face, so
# the cube of radius r certifies a candidate only below (1 - _RING_SLACK) r sides
_RING_SLACK = 1e-9
# certified neighbours kept per point: an evenly spread set has about 4 in
# 3D, and a crowded cell of k points would otherwise keep k^2 pairs
_ROW = 8


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of X and Y, shape (d, m) or
    (d, 1): the squares summed in coordinate order, as a kd-tree sums them."""
    D = X - Y
    D *= D
    s = D[0] + D[1]
    for k in range(2, D.shape[0]):
        s += D[k]
    return s


class _CellGrid:
    """Sparse cell grid over P for exact nearest neighbours (see
    `greedy_close_pairs`), on a `geometry._CellIndex` with its origin at the
    bounding box's low corner.

    `nbr[at[c]:at[c + 1]]` lists the occupied cells of the cube of radius 1
    around occupied cell c (`_CellIndex.neighbours`).  The cube of radius r
    certifies a candidate closer than r cell sides: every point outside it
    is farther.
    """

    def __init__(self, P: np.ndarray):
        n, d = P.shape
        lo = P.min(axis=0)
        extent = float((P.max(axis=0) - lo).max())
        q = np.quantile(P, [0.01, 0.99], axis=0)
        side = (float((q[1] - q[0]).max()) or extent) / max(1, round(n ** (1.0 / d)))
        # at most 2^52 cells along an axis, so cell coordinates stay exact
        side = max(side, extent * 2.0**-52) or 1.0  # all points equal: one cell
        self.index = index = _CellIndex(P, side, lo)
        self.P, self.Pt = P, np.ascontiguousarray(P[index.order].T)
        self.safe = side * (1.0 - _RING_SLACK)
        # cube radius from each point's cell that covers the whole grid
        lo_cell, hi_cell = index.cells.min(axis=0), index.cells.max(axis=0)
        self.reach = np.maximum(index.cells - lo_cell, hi_cell - index.cells).max(axis=1)
        self.at, self.nbr = index.neighbours()

    def certified_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per point i, its nearest points j != i closer than the radius-1
        cube certifies, at most _ROW of them, sorted by (d2, j): rows
        start[i]:start[i + 1] of (j, d2), and `bound[i]`, a squared distance
        no point outside the row undercuts (the certified radius, or the
        first entry left out when the row was cut).  The first alive j of a
        row is i's nearest alive point.

        Scores each point's radius-1 cube in the blocks of `_cell_pairs`,
        which hold whole rows, so the blocking does not change the result.
        """
        index = self.index
        order = index.order
        n = order.size
        limit = self.safe ** 2
        bound = np.full(n, limit)
        I, J, D2 = [], [], []
        for src, pos in _cell_pairs(index.cell[order], self.at, self.nbr, index.head[:-1],
                                    np.diff(index.head)):
            d2 = _sq_dists(self.Pt.take(src, axis=1), self.Pt.take(pos, axis=1))
            close = np.flatnonzero((d2 < limit) & (pos != src))
            src, j, d2 = src[close], order[pos[close]], d2[close]
            by = np.argsort(j)  # (src, j) is unique: only the d2 and src passes need be stable
            by = by[np.lexsort((d2[by], src[by]))]
            src, j, d2 = src[by], j[by], d2[by]
            rank = np.arange(src.size) - np.searchsorted(src, src)  # place in its row
            cut = rank == _ROW
            bound[order[src[cut]]] = d2[cut]
            keep = rank < _ROW
            I.append(order[src[keep]])
            J.append(j[keep])
            D2.append(d2[keep])
        I, J, D2 = np.concatenate(I), np.concatenate(J), np.concatenate(D2)
        by = np.argsort(I, kind="stable")
        start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(I, minlength=n), out=start[1:])
        return start, J[by], D2[by], bound

    def nearest_alive(self, i: int, alive: np.ndarray) -> tuple[float, int, int]:
        """Heap entry (distance, i, j) for the nearest alive j != i: the
        radius-1 cube of i from the neighbour table, then the cubes of radius
        2, 4, 8, ... until one certifies the best candidate or covers the
        grid.  Among equal squared distances the smallest j wins, so folding
        the inner cells again changes nothing."""
        index = self.index
        k = index.cell[i]
        x = self.P[i][:, None]
        was, alive[i] = alive[i], False  # hide i from its own query
        best, arg = self._fold(x, self.nbr[self.at[k]:self.at[k + 1]], alive, np.inf, -1)
        r = 1
        while best >= (r * self.safe) ** 2 and r < self.reach[i]:
            r = min(2 * r, int(self.reach[i]))
            best, arg = self._fold(x, index.cubes(index.cells[i:i + 1], r)[0], alive, best, arg)
        alive[i] = was
        return math.sqrt(best), i, int(arg)

    def _fold(self, x, cells, alive, best, arg):
        """(best, arg) after the alive candidates in the occupied cells `cells`."""
        pos = self.index.rows(cells)
        j = self.index.order[pos]
        keep = alive[j]
        pos, j = pos[keep], j[keep]
        if j.size:
            d2 = _sq_dists(x, self.Pt.take(pos, axis=1))
            m = d2[d2.argmin()]
            if m <= best:
                jm = j[d2 == m].min()
                if m < best or jm < arg:
                    best, arg = m, jm
        return best, arg


def _require_pair_range(P: np.ndarray) -> None:
    """The input checks of `greedy_close_pairs`: ValueError for points that
    are not finite, fewer than 8, or spread over more than the float range;
    FloatingPointError when d s^2 overflows, s the longest bounding-box
    extent, or a spread s > 0 has s^2 below the smallest normal float."""
    if not np.isfinite(P).all():
        raise ValueError("points must be finite")
    if P.shape[0] < 8:
        raise ValueError("need at least 8 points")
    extent = float((P.max(axis=0) - P.min(axis=0)).max())
    if not math.isfinite(extent):
        raise ValueError("point coordinates span more than the float range")
    if not math.isfinite(P.shape[1] * extent * extent):
        raise FloatingPointError(f"points spread over {extent:.3g}: squared distances overflow")
    if 0.0 < extent and extent * extent < sys.float_info.min:
        raise FloatingPointError(f"points spread over {extent:.3g}: squared distances underflow")


def greedy_close_pairs(P):
    """Extract floor(n/4) disjoint closest-available point pairs.

    Each round removes the exact closest remaining pair, matching the
    pigeonhole covering radius with the remaining count.  A lazy heap holds,
    per alive point i, an entry (distance, i, j) that is at most i's distance
    to its nearest alive point and equals it while j is alive.  Points only
    die, so a popped entry whose i and j are both alive is the exact closest
    remaining pair; an entry with a dead i is dropped, and one with a dead j
    is replaced.

    The entries come from a sparse cell grid (`_CellGrid`, which stores
    occupied cells only).  Its cell side is the largest per-axis spread
    between the 1st and 99th percentiles over round(n^(1/d)), so a few far
    points do not crowd the rest into one cell; when that spread is 0 the
    longest bounding-box extent takes its place, and 1.0 when that is 0 too.
    One vectorized pass scores every pair of points in neighbouring cells
    and keeps, per point, the neighbours closer than one cell side, sorted:
    these are certified, since every point outside the 3^d cells around i is
    farther.  A dead j is replaced by i's next alive certified neighbour.
    When none is left, the entry becomes the lower bound (one cell side, i,
    -1); only if it comes first does one query search the alive points in
    the cubes of radius r = 1, 2, 4, ... cells around i, where radius r
    certifies a candidate closer than r sides, until a cube certifies one or
    covers the grid.  A point never pairs with itself, also when duplicated.

    A distance is the square root of the squared coordinate differences
    summed in coordinate order, as a kd-tree computes it.  Ties: among equal
    squared distances to i the smallest j wins, and among equal heap
    distances the smallest i; only inputs with exact ties, such as lattices,
    can pair differently from a kd-tree, whose order on ties is arbitrary.
    The pairs do not depend on the cell side.  Cost about O(n log n) on a
    set whose points between the percentiles are spread evenly; a cell
    holding k points costs k^2 distance evaluations.
    Returns (pairs, distances) with pairs as (i, j) index tuples, i < j.
    Its input checks are `_require_pair_range`.
    """
    P = _point_rows(P)
    _require_pair_range(P)
    n = P.shape[0]
    m = n // 4
    grid = _CellGrid(P)
    start, nbr, nd2, bound = grid.certified_rows()
    start, nbr, nd = start.tolist(), nbr.tolist(), np.sqrt(nd2).tolist()
    # (far[i], i, -1): i has no row entry alive, so every other alive point
    # is at least far[i] away (sqrt is monotone); search when it comes first
    far = np.sqrt(bound).tolist()
    heap = [(nd[a], i, nbr[a]) if a < b else (far[i], i, -1)
            for i, (a, b) in enumerate(zip(start, start[1:]))]
    heapq.heapify(heap)
    at = start[:-1]  # each point's current certified neighbour
    alive = np.ones(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    dists: list[float] = []
    while len(pairs) < m:
        d, i, j = heapq.heappop(heap)
        if not alive[i]:
            continue
        if j < 0:
            heapq.heappush(heap, grid.nearest_alive(i, alive))
            continue
        if not alive[j]:
            k = at[i] + 1
            while k < start[i + 1] and not alive[nbr[k]]:
                k += 1
            at[i] = k
            heapq.heappush(heap, (nd[k], i, nbr[k]) if k < start[i + 1] else (far[i], i, -1))
            continue
        pairs.append((min(i, j), max(i, j)))
        dists.append(d)
        alive[i] = alive[j] = False
    return pairs, np.array(dists)


def triangle_via_pointline(P) -> tuple[TriangleWitness, PairPipelineReport]:
    """Pairing pipeline: close pairs -> point-line configuration -> triangle.

    The returned triangle (p_i, p_j, q_j) has area exactly half the product
    of the pair length |p_j q_j| and the realized minimal distance, hence
    area <= max_pair_length * distance / 2 by construction.  Points that
    `greedy_close_pairs` refuses, then points whose triangle areas could
    overflow or underflow (`_require_area_range`), are refused before any
    pairing.
    """
    P = _point_rows(P)
    _require_pair_range(P)
    _require_area_range(P)
    pairs, dists = greedy_close_pairs(P)
    n, m = P.shape[0], len(pairs)
    max_len = float(np.max(dists))

    for (i, j), dist in zip(pairs, dists):
        if dist == 0.0:
            k = next(t for t in range(n) if t not in (i, j))
            tri = tuple(sorted((i, j, k)))
            report = PairPipelineReport(m, max_len, 0.0, 0.0)
            return TriangleWitness(indices=tri, area=0.0), report

    anchors = np.array([P[i] for i, _ in pairs])
    dirs = np.array([canonical_direction(P[j] - P[i]) for i, j in pairs])
    best, (a, b) = _nearest_point_line(anchors, anchors, dirs)
    tri_pts = (pairs[a][0], pairs[b][0], pairs[b][1])
    area = triangle_area(P[tri_pts[0]], P[tri_pts[1]], P[tri_pts[2]])
    bound = max_len * best / 2.0
    report = PairPipelineReport(n_pairs=m, max_pair_length=max_len,
                                config_distance=best, area_bound=bound)
    return TriangleWitness(indices=tuple(sorted(tri_pts)), area=float(area)), report
