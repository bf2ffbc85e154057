"""Concentration numbers, Katz-Tao fits and uniformization.

Concentration numbers measure how strongly a family clusters at a scale: the
maximal number of points in a w-cube, of lines crossing a u x w x 1 box, or
of configuration pairs within a (point, direction, line) distance triple of
an anchor.  Box maxima cannot scan all oriented boxes, so candidate boxes
are anchored on member lines (axis from one line, secondary orientation from
a partner, plus a subdivision pass around the per-scale argmax); the box
Lipschitz inequality bounds the loss by a constant, and every downstream
comparison carries explicit constant slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configurations import (
    EmptyConfigurationError,
    PointLineConfiguration,
    min_config_distance,
    slab_restriction,
)
from .geometry import (
    _CHUNK,
    Box,
    _CellIndex,
    _chords_from_local,
    _cross3,
    _direction_rows,
    _lines_min_distance_rows,
    _norms,
    _range_checked,
    _require_finite,
    complete_frame,
)

_MAX_TRIPLES = 10**5  # the scale triples a uniformize ladder may have


class HypothesisViolation(ValueError):
    """A numerically checked hypothesis failed; carries the violating scales."""

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        self.violations = violations or []


class DegenerateGridError(ValueError):
    """Too few populated scale cells to run a regression."""


# ---------------------------------------------------------------------------
# point concentration


def m_points(P, w: float) -> int:
    """Maximal number of points in any w-cube (shifted-grid approximation).

    Grids at all w/2 offsets are scanned; any w-cube is covered by at most
    2^d shifted grid cubes, so the result is within that factor of the true
    maximum and never exceeds it.
    """
    if not 0 < w:
        raise ValueError("w must be positive")
    P = np.asarray(P, dtype=float)
    if P.size == 0:
        return 0
    d = P.shape[1]
    best = 0
    for mask in range(2**d):
        off = np.array([(mask >> ax) & 1 for ax in range(d)]) * (w / 2.0)
        best = max(best, int(np.diff(_CellIndex(P, w, off).head).max()))
    return best


# ---------------------------------------------------------------------------
# line concentration in boxes


def _family_arrays(family):
    """(bases, dirs, lengths) of a line list or a (bases, dirs[, lengths]) tuple;
    lengths is None for lines."""
    if not isinstance(family, tuple):
        return (np.array([ln.base for ln in family]), np.array([ln.dir for ln in family]),
                None)
    bases, dirs, *lengths = family
    return bases, dirs, (lengths[0] if lengths else None)


def _subsample(n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, cap).round().astype(int))


def _closest_points(b1, v1, b2, v2):
    """Closest points of pairs of infinite 3D lines, (m, 3) rows with unit
    directions (on line1, on line2); for parallel lines, b1 and its foot on
    line2."""
    w0 = b1 - b2
    b, dd, e = np.vecdot(v1, v2), np.vecdot(v1, w0), np.vecdot(v2, w0)
    den = 1.0 - b * b
    parallel = np.abs(den) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = np.where(parallel, 0.0, (b * e - dd) / den)
        t2 = np.where(parallel, e, (e - b * dd) / den)
    return b1 + t1[:, None] * v1, b2 + t2[:, None] * v2


def _pair_frame(b1, v1, b2, v2):
    """Frames (rows e1, e2, e3=v1) of pairs of lines, (m, 3) rows, with e2
    spanned toward the partner line: along its direction, else toward its
    base; `complete_frame(v1)` where neither spans a plane with v1."""
    proj = v2 - np.vecdot(v2, v1)[:, None] * v1
    np_ = _norms(proj)
    off = (b2 - b1) - np.vecdot(b2 - b1, v1)[:, None] * v1
    no = _norms(off)
    toward = np_ > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        e2 = np.where(toward[:, None], proj / np_[:, None], off / no[:, None])
        e1 = _cross3(v1, e2)
        n1 = _norms(e1)
        e1 = e1 / n1[:, None]
        e2 = _cross3(e1, v1) * -1.0
        e2 = e2 / _norms(e2)[:, None]
    frames = np.stack([e1, e2, v1], axis=1)
    flat = ~(toward | (no > 1e-9)) | (n1 < 1e-9)
    frames[flat] = complete_frame(v1[flat])
    return frames


# at most this many member lines anchor the pair candidates of the 3D box
# search, each paired with at most _PARTNERS partners
_ANCHORS, _PARTNERS = 48, 24


def _box_candidates(bases: np.ndarray, dirs: np.ndarray):
    """Candidate boxes anchored on member lines, as (centers (C, d), frames
    (C, d, d)): one per line, then one per (anchor, partner) pair in order
    of anchor, then partner.  All are built at once as row arrays, each row
    through the operations of a candidate built alone, bit for bit: every
    dot is np.vecdot (the BLAS dot of `a @ b` on each row), every norm the
    square root of one, every cross product is taken component by component,
    and masks pick the degenerate branches row by row.

    Both dimensions share the subsampling and the candidate order; each has
    its own caps and its own centres and frames (`_rect_candidates`,
    `_line_box_candidates`).
    """
    n, d = bases.shape
    (cap, anchor_cap, partner_cap), build = (
        ((384, 64, 32), _rect_candidates) if d == 2
        else ((192, _ANCHORS, _PARTNERS), _line_box_candidates))
    anchors, partners = _subsample(n, anchor_cap), _subsample(n, partner_cap)
    i, j = np.repeat(anchors, partners.size), np.tile(partners, anchors.size)
    keep = i != j
    return build(bases, dirs, _subsample(n, cap), i[keep], j[keep])


def _rect_candidates(bases, dirs, singles, i, j):
    """2D candidates: a line's rectangle is centred at its base, a pair's
    where the two lines cross (the midpoint of their bases when parallel),
    in the `complete_frame` of the (anchor) line."""
    b1, v1, b2, v2 = bases[i], dirs[i], bases[j], dirs[j]
    cross = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    dbase = b2 - b1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (dbase[:, 0] * v2[:, 1] - dbase[:, 1] * v2[:, 0]) / cross
        meet = b1 + t[:, None] * v1
    pair_centers = np.where((np.abs(cross) > 1e-12)[:, None], meet, (b1 + b2) / 2.0)
    return (np.concatenate([bases[singles], pair_centers]),
            complete_frame(dirs[np.concatenate([singles, i])]))


def _line_box_candidates(bases, dirs, singles, i, j):
    """3D candidates: a line's box is centred at its point nearest the cube
    centre, in its `complete_frame`; a pair's at the midpoint of their
    closest points, in the frame `_pair_frame`."""
    b, v = bases[singles], dirs[singles]
    t = np.vecdot(0.5 - b, v)
    b1, v1, b2, v2 = bases[i], dirs[i], bases[j], dirs[j]
    p1, p2 = _closest_points(b1, v1, b2, v2)
    return (np.concatenate([b + t[:, None] * v, (p1 + p2) / 2.0]),
            np.concatenate([complete_frame(v), _pair_frame(b1, v1, b2, v2)]))


@_range_checked("the smallest box half-extent", value=lambda h: h.min(initial=1.0))
def _box_halves(scales, d: int) -> np.ndarray:
    """(S, d) half-extents of the box of each (u, w) in `scales`: the
    u x w x 1 box in 3D, the w x 1 rectangle in 2D (u unused).
    FloatingPointError when one is not a positive normal float."""
    return np.array([[u / 2.0, w / 2.0, 0.5][3 - d:] for u, w in scales]).reshape(-1, d)


def _need_reach(lengths, d: int):
    """(need, reach) of `_box_counts` for a family's members: a line counts
    when its chord reaches 1/2, a member with a length when it reaches half
    of it.  A 2D segment's chord is clipped to the segment; a 3D tube's is
    the chord of its whole axis line."""
    if lengths is None:
        return 0.5, np.inf
    need = np.asarray(lengths, dtype=float) / 2.0
    return need, (need if d == 2 else np.inf)


def _box_counts(bases, dirs, need, centers, frames, halves, reach=np.inf) -> np.ndarray:
    """(C, S) counts: members whose chord is at least `need` in the box with
    centre centers[k], frame rows frames[k] and half-extents halves[s].

    Works in blocks of at most _CHUNK (candidate, scale, member) elements:
    several candidates per block when they fit, else one candidate and a
    slice of the scales (a single member row can exceed it when n > _CHUNK).
    A block's local coordinates come from one stacked product
    `(bases - centers[blk, None]) @ frames[blk].transpose(0, 2, 1)` (and the
    same for `dirs`), which calls BLAS once per candidate with the shapes and
    strides of a one-box call, so every candidate gets that call's bits.
    """
    n = bases.shape[0]
    C, S = centers.shape[0], halves.shape[0]
    counts = np.zeros((C, S), dtype=np.int64)
    if n == 0 or C == 0:
        return counts
    s_step = max(1, min(S, _CHUNK // n))
    c_step = min(C, max(1, _CHUNK // (s_step * n)))
    for k0 in range(0, C, c_step):
        blk = slice(k0, k0 + c_step)
        to_local = frames[blk].transpose(0, 2, 1)
        B = (bases - centers[blk, None]) @ to_local
        V = dirs @ to_local
        for s0 in range(0, S, s_step):
            chords = _chords_from_local(B, V, halves[s0:s0 + s_step], reach)
            counts[blk, s0:s0 + s_step] = np.count_nonzero(chords >= need, axis=-1)
    return counts


def m_lines_sweep(lines, scales):
    """Max members captured by the box of every (u, w) in `scales`: a
    u x w x 1 box in 3D, a w x 1 rectangle in 2D (u unused).

    `lines` is a list of Line or a (bases, dirs) or (bases, dirs, lengths)
    tuple; with lengths a member counts when its chord reaches half its length.
    Scales need 0 < u <= w <= 1 in 3D and 0 < w <= 1 in 2D, with 1e-9 of
    slack above 1.  Returns (values, boxes): per-scale maxima and the
    realizing boxes, whose extents are clipped to 1.
    """
    scales = [tuple(map(float, s)) for s in scales]
    bases, dirs, lengths = _family_arrays(lines)
    d = bases.shape[1] if bases.ndim == 2 else 3  # an empty line list checks as 3D
    for u, w in scales:
        if d == 2 and not (0 < w <= 1 + 1e-9):
            raise ValueError(f"need 0 < w <= 1, got {w}")
        if d == 3 and not (0 < u <= w <= 1 + 1e-9):
            raise ValueError(f"need 0 < u <= w <= 1, got ({u}, {w})")
    if bases.shape[0] == 0:
        return [0] * len(scales), [None] * len(scales)
    need, reach = _need_reach(lengths, d)
    values, cands, halves = _sweep(bases, dirs, need, scales, reach=reach)
    return values, [Box(c, np.minimum(h, 0.5), f) for (c, f), h in zip(cands, halves)]


def _sweep(bases, dirs, need, scales, subdivide: bool = True, reach=np.inf):
    """Per-scale max counts over the candidate boxes, the realizing
    (center, frame) pairs and the (S, d) half-extents of the scales; in 3D `subdivide` adds children around each
    argmax (a 2D search scores its candidates alone).  `need` and `reach`
    are those of `_box_counts`.

    A scale's box is the first candidate reaching its maximum; a child
    replaces it only with a strictly larger count, children taken in order
    of parent scale, child scale and shift.
    """
    d = bases.shape[1]
    halves = _box_halves(scales, d)
    centers, frames = _box_candidates(bases, dirs)
    counts = _box_counts(bases, dirs, need, centers, frames, halves, reach)
    first = counts.argmax(axis=0)
    best = [int(c) for c in counts.max(axis=0)]
    best_cand = [(centers[k], frames[k]) for k in first]
    if not subdivide or d == 2:
        return best, best_cand, halves
    for (u_p, w_p), (center, frame) in zip(scales, list(best_cand)):
        blocks = []
        for (u_c, w_c) in scales:
            if u_c > u_p and w_c > w_p:
                continue
            shifts_u = _span_steps(u_p, u_c)
            shifts_w = _span_steps(w_p, w_c)
            if len(shifts_u) * len(shifts_w) <= 1:
                continue
            blocks.append((center + shifts_u[:, None, None] * frame[0]
                           + shifts_w[None, :, None] * frame[1]).reshape(-1, 3))
        if not blocks:
            continue
        kids = np.concatenate(blocks)
        kid_frames = np.broadcast_to(frame, (kids.shape[0], 3, 3))
        counts = _box_counts(bases, dirs, need, kids, kid_frames, halves, reach)
        top = counts.max(axis=0)
        first = counts.argmax(axis=0)
        for s in np.flatnonzero(top > best):
            best[s] = int(top[s])
            best_cand[s] = (kids[first[s]], frame)
    return best, best_cand, halves


def _span_steps(extent_parent: float, extent_child: float) -> np.ndarray:
    """Offsets of at most 13 child boxes covering a parent extent (both centered)."""
    if extent_child >= extent_parent:
        return np.array([0.0])
    half_span = (extent_parent - extent_child) / 2.0
    k = min(int(np.ceil(2.0 * half_span / (extent_child / 2.0))) + 1, 13)
    return np.linspace(-half_span, half_span, k)


def m_lines(lines, u: float, w: float) -> int:
    """Approximate max of lines crossing (chord >= 1/2) a u x w x 1 box (a
    w x 1 rectangle in 2D)."""
    if u > w:
        raise ValueError("need u <= w")
    values, _ = m_lines_sweep(lines, [(u, w)])
    return values[0]


def m_tubes_2d(centers, dirs, lengths, widths) -> list[int]:
    """Max segments concentrated in a w x 1 rectangle, for every w in `widths`
    (2D families): the maxima of `m_lines_sweep` at the scales (w, w).

    `lengths=None` treats members as infinite lines with chord threshold 1/2.
    Raises ValueError unless every width lies in (0, 1].
    """
    # (n, 2) even when empty, so that the widths are checked as 2D
    family = tuple(np.asarray(a, dtype=float).reshape(len(a), 2) for a in (centers, dirs))
    family += () if lengths is None else (lengths,)
    return m_lines_sweep(family, [(w, w) for w in widths])[0]


def m_lines_2d(lines, w: float) -> int:
    """Max 2D lines crossing a w x 1 rectangle with chord >= 1/2."""
    bases, dirs, _ = _family_arrays(lines)
    return m_tubes_2d(bases, dirs, None, [w])[0]


# ---------------------------------------------------------------------------
# configuration concentration


class ConfigMetrics:
    """Pairwise point / direction / line distances between the members of
    `subset` (an index array or mask; all members when None).

    `point_dist`, `dir_dist` and `line_dist` are the k x k matrices, built at
    construction.  Each row is computed from the geometry row kernels over all
    n members and then indexed by the subset, so an entry does not depend on
    which subset holds it.
    """

    def __init__(self, config: PointLineConfiguration, subset=None):
        P, D, bases = config.points(), config.directions(), config.line_bases()
        members = np.arange(len(config))
        if subset is not None:
            members = members[subset]
        k = members.size
        self.point_dist, self.dir_dist, self.line_dist = (np.empty((k, k)) for _ in range(3))
        for j, i in enumerate(members.tolist()):
            dd = _direction_rows(D, D[i])
            self.point_dist[j] = np.linalg.norm(P - P[i], axis=1)[members]
            self.dir_dist[j] = dd[members]
            self.line_dist[j] = (dd + _lines_min_distance_rows(bases[i], D[i], bases, D))[members]

    def local_counts(self, u: float, v: float, w: float) -> np.ndarray:
        """Per-anchor counts of members within the (u, v, w) scale triple.

        A scale of 1 means "anywhere within unit range" and is treated as
        unconstrained (the cube diameter exceeds 1).
        """
        uu = np.inf if u >= 1 else u
        vv = np.inf if v >= 1 else v
        ww = np.inf if w >= 1 else w
        mask = (self.point_dist <= uu) & (self.dir_dist <= vv) & (self.line_dist <= ww)
        return mask.sum(axis=1)


def m_config(config: PointLineConfiguration, u: float, v: float, w: float) -> int:
    """Max over member anchors of pairs within point/direction/line scales.

    Because the direction distance never exceeds the line distance, the
    identity M(u, v, w) = M(u, min(v, w), w) holds exactly.
    """
    for s in (u, v, w):
        if not 0 < s <= 1 + 1e-9:
            raise ValueError("scales must lie in (0, 1]")
    if len(config) == 0:
        return 0
    return int(ConfigMetrics(config).local_counts(u, v, w).max())


# ---------------------------------------------------------------------------
# Katz-Tao fits


@dataclass(frozen=True)
class KatzTaoFit:
    """Least-squares concentration exponents with the realized constant."""

    exponents: tuple[float, ...]
    constant: float
    residuals: tuple[tuple[float, float, int, float], ...]  # (u, w, measured, fitted)


def dyadic_ladder(start: float, factor: float = 2.0, top: float = 1.0) -> list[float]:
    """The ascending ladder start, factor*start, factor^2*start, ... <= top + 1e-9.

    Raises ValueError for a start that is not finite and positive (the ladder
    would never reach the top).
    """
    if not (np.isfinite(start) and start > 0):
        raise ValueError(f"scale ladder needs a finite positive start, got {start}")
    out = []
    x = start
    while x <= top + 1e-9:
        out.append(x)
        x *= factor
    return out


def dyadic_pairs(u0: float, w0: float, factor: float = 2.0) -> list[tuple[float, float]]:
    """(u, w) with w on the ladder from w0 and u on the ladder from u0 up to w,
    in order of w, then u."""
    return [(u, w) for w in dyadic_ladder(w0, factor)
            for u in dyadic_ladder(u0, factor, top=w)]


def _box_scales(u0: float, w0: float, d: int) -> list[tuple[float, float]]:
    """The Katz-Tao box grid, both extents clipped to 1: in 3D the (u, w) of
    `dyadic_pairs(u0, w0)` sorted by u, then w (distinct: at most one rung of a
    doubling ladder reaches 1), in 2D (w, w) for each w on the ladder from w0."""
    ws = dyadic_ladder(w0)
    if d == 2:
        return [(min(w, 1.0),) * 2 for w in ws]
    us = dyadic_ladder(u0, top=ws[-1]) if ws else []
    return [(min(u, 1.0), min(w, 1.0)) for u in us for w in ws if u <= w + 1e-9]


@_range_checked("a Katz-Tao profile weight (scale/delta)^t")
def _kt_weight(ratio: float, t: float) -> float:
    if not np.isfinite(t):
        raise ValueError(f"Katz-Tao exponents must be finite, got {t}")
    return ratio ** t


def _kt_weights(scales, delta: float, t1: float, t2: float | None):
    """(a, b) = ((u/delta)^t1, (w/delta)^t2) for each (u, w) in `scales`, b = 1 when
    t2 is None (2D), through `_kt_weight`: a family is Katz-Tao with constant K
    when each box holds at most K * a * b members."""
    return [(_kt_weight(u / delta, t1), 1.0 if t2 is None else _kt_weight(w / delta, t2))
            for u, w in scales]


def katz_tao_fit(family, delta: float) -> KatzTaoFit:
    """Fit log box counts against log(u/delta), log(w/delta) on a dyadic grid.

    The family is a non-empty list of lines or a (bases, dirs, lengths)
    member array tuple, whose members give the dimension; a member with a
    length counts in a box when its chord reaches half of it.  3D boxes are
    u x w x 1 (the first 64 (u, w) cells in sorted order), 2D boxes w x 1
    with a single exponent (cells (w, w)).
    """
    family = _family_arrays(family)
    if len(family[0]) == 0:
        raise ValueError("a Katz-Tao fit needs a non-empty family")
    dim = family[0].shape[1]
    cells = _box_scales(delta, delta, dim)[:64 if dim == 3 else None]
    if len(cells) < 4:
        raise DegenerateGridError("fewer than 4 scale cells")
    values, _ = m_lines_sweep(family, cells)
    # columns 1, log(u/delta)[, log(w/delta)]: 2D cells have u = w
    A = np.array([[1.0, np.log(u / delta), np.log(w / delta)][:dim] for u, w in cells])
    y = np.log(np.maximum(values, 1))
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = np.exp(A @ coef)
    rows = tuple((u, w, int(v), float(f)) for (u, w), v, f in zip(cells, values, fitted))
    return KatzTaoFit(exponents=tuple(float(c) for c in coef[1:]),
                      constant=float(np.exp(coef[0])), residuals=rows)


# ---------------------------------------------------------------------------
# plane-reduction check


@dataclass(frozen=True)
class PlaneReductionRow:
    u: float
    w: float
    measured: int
    bound: float
    ratio: float


@dataclass(frozen=True)
class PlaneReductionReport:
    precondition_ok: bool
    rows: tuple[PlaneReductionRow, ...]
    fitted_constant: float
    slab_count: int
    slab_bound: float


@_range_checked("the plane-reduction bound")
def _plane_bound(delta: float, u: float, w: float, gamma: float) -> float:
    return delta**-3 * u ** (1 + gamma) * w ** (2 - gamma)


def plane_reduction_check(config: PointLineConfiguration, delta: float,
                          gamma: float) -> PlaneReductionReport:
    """Compare measured box concentration against delta^-3 u^(1+g) w^(2-g).

    Also restricts the configuration to the worst box and reports the size of
    the collapsed 2D configuration against (u/w)^(gamma-2).  Raises ValueError
    for a gamma that is not finite and FloatingPointError for a bound that is
    not a positive normal float.
    """
    if config.dim != 3:
        raise ValueError("plane reduction check requires a 3D configuration")
    _require_finite("plane-reduction", gamma=gamma)
    if not 0 < delta < 1:
        raise ValueError(f"plane reduction check needs 0 < delta < 1, got {delta}")
    dmin = min_config_distance(config)
    precondition_ok = dmin >= delta * (1 - 1e-9)
    pairs = [(u, w) for u, w in _box_scales(delta, 2 * delta, 3) if u * w >= delta * (1 - 1e-12)]
    if not pairs:
        return PlaneReductionReport(precondition_ok=precondition_ok,
                                    rows=(), fitted_constant=0.0,
                                    slab_count=0, slab_bound=np.inf)
    values, boxes = m_lines_sweep(config.lines(), pairs)
    rows = []
    worst = (0.0, 0)
    for idx, ((u, w), v) in enumerate(zip(pairs, values)):
        bound = _plane_bound(delta, u, w, gamma)
        ratio = v / bound
        rows.append(PlaneReductionRow(u=u, w=w, measured=v, bound=bound, ratio=ratio))
        if ratio > worst[0]:
            worst = (ratio, idx)
    u, w = pairs[worst[1]]
    restricted = slab_restriction(config, boxes[worst[1]])
    slab_bound = (u / w) ** (gamma - 2)
    return PlaneReductionReport(precondition_ok=precondition_ok,
                                rows=tuple(rows), fitted_constant=worst[0],
                                slab_count=len(restricted), slab_bound=slab_bound)


# ---------------------------------------------------------------------------
# uniformization


@dataclass(frozen=True)
class UniformityCertificate:
    """Scale-triple count ratios of a uniformized configuration."""

    K: float
    scales: tuple[float, ...]
    ratios: dict = field(default_factory=dict)  # (i,j,k) -> (min_count, max_count)
    retained: int = 0
    original: int = 0

    @property
    def valid(self) -> bool:
        return all(mx == 0 or mn >= mx / self.K - 1e-9
                   for mn, mx in self.ratios.values())


def uniformize(config: PointLineConfiguration, K: float, delta: float | None = None):
    """Extract a subset with uniform local counts at every K-power scale triple.

    First selects a parity class of separated cubes at every ladder scale
    (cubes in one class are pairwise 4 * scale apart), then repeatedly
    buckets members by the dyadic class of their local count at each scale
    triple and keeps the largest bucket, until all triples have counts within
    a factor K or 500 rounds have run.  `delta` defaults to the minimal
    configuration distance and must be finite and positive; a ladder of
    m = floor(log(1/delta) / log K) scales with m^3 > _MAX_TRIPLES = 10^5 scale
    triples raises ValueError.  Returns (subset, certificate).
    """
    if not (np.isfinite(K) and K >= 2):
        raise ValueError(f"uniformize needs a finite K >= 2, got {K}")
    n = len(config)
    if n < 2:
        raise EmptyConfigurationError("uniformize needs at least 2 pairs")
    if delta is None:
        delta = min_config_distance(config)
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"uniformize needs a finite delta > 0 (the minimal "
                         f"configuration distance by default), got {delta}")
    m = np.floor(np.log(1.0 / delta) / np.log(K))  # inf when 1 / delta overflows
    if m ** 3 > _MAX_TRIPLES:
        raise ValueError(f"uniformize: delta={delta!r} and K={K!r} give a ladder of "
                         f"m={m:.0f} scales, over the cap of {_MAX_TRIPLES} triples")
    scales = tuple(float(K) ** -(j + 1) for j in range(max(1, int(m))))

    P = config.points()
    alive = np.arange(n)
    q = 5  # residues mod 5 of cube indices: one class is 4 cubes apart
    for s in scales:
        # the cube index stays in float: 1 / s can pass the int64 range
        cls = np.floor(P[alive] / s) % q
        packed = cls[:, 0].copy()
        for ax in range(1, cls.shape[1]):
            packed = packed * q + cls[:, ax]
        vals, counts = np.unique(packed, return_counts=True)
        keep = vals[int(np.argmax(counts))]
        alive = alive[packed == keep]
        if alive.size == 0:
            raise EmptyConfigurationError("separation phase removed all pairs")

    metrics = ConfigMetrics(config, alive)
    triples = [(si, sj, sk) for si in scales for sj in scales for sk in scales]
    for _ in range(500):
        stable = True
        for (si, sj, sk) in triples:
            counts = metrics.local_counts(si, sj, sk)
            cmax, cmin = int(counts.max()), int(counts.min())
            if cmax <= K * cmin:
                continue
            buckets = np.floor(np.log2(counts)).astype(int)
            vals, sizes = np.unique(buckets, return_counts=True)
            keep = vals[int(np.argmax(sizes))]
            alive = alive[buckets == keep]
            metrics = ConfigMetrics(config, alive)
            stable = False
            break
        if stable or alive.size < 2:
            break

    pairs = tuple(config.pairs[i] for i in alive)
    if not pairs:
        raise EmptyConfigurationError("uniformization removed all pairs")
    subset = PointLineConfiguration(dim=config.dim, pairs=pairs)
    ratios = {}
    for (si, sj, sk) in triples:
        counts = metrics.local_counts(si, sj, sk)
        ratios[(si, sj, sk)] = (int(counts.min()), int(counts.max()))
    cert = UniformityCertificate(K=float(K), scales=scales, ratios=ratios,
                                 retained=len(pairs), original=n)
    return subset, cert
