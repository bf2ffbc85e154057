"""Two-ends decomposition, shadings, union volumes and hairbrush checks.

The two-ends routine follows the iterative excision scheme: fix a rich-point
threshold r, and in each round cut out, from every tube, the short coaxial
window capturing the most currently-rich net points; after logarithmically
many rounds the residual pieces have small overlap.  Union volumes are
measured by dense cell-center counting.  The hairbrush checks compare those
measured volumes against the concentration-exponent lower bounds; since the
bounds are theorems for certified families, a failure flags an
implementation bug rather than an interesting input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import HypothesisViolation, _box_counts, _box_halves, _box_scales, \
    _kt_weights, _need_reach, _sweep, dyadic_ladder, m_tubes_2d
from .configurations import _check_members
from .geometry import _CellIndex, _clip, _norms, _planes, _ranges, _require_finite, \
    _require_normal, _sorted_unique, canonical_direction, complete_frame


@dataclass(frozen=True, eq=False)
class _Tube:
    """Tube of the given `width` and `length` around center, with unit dir.
    A field that is not finite raises ValueError naming it.

    Tubes are equal when their fields are, and only tubes of the same class.
    """

    center: np.ndarray
    dir: np.ndarray
    width: float
    length: float

    def __init__(self, center, dir, width, length):
        c = np.array(center, dtype=float)
        v = canonical_direction(dir)
        if c.shape != (self._dim,) or v.shape != (self._dim,):
            raise ValueError(f"{type(self).__name__} lives in {self._space}")
        # the plain test first: the generator builds a tube per attempt
        if not all(map(math.isfinite, (width, length, *c.tolist()))):
            _require_finite(type(self).__name__, width=width, length=length,
                            **{f"center[{i}]": x for i, x in enumerate(c.tolist())})
        if not 0 < width <= length:
            raise ValueError("need 0 < width <= length")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dir", v)
        object.__setattr__(self, "width", float(width))
        object.__setattr__(self, "length", float(length))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (np.array_equal(self.center, other.center)
                and np.array_equal(self.dir, other.dir)
                and self.width == other.width and self.length == other.length)

    def __hash__(self):
        return hash((tuple(self.center), tuple(self.dir), self.width, self.length))


class Tube2D(_Tube):
    """Planar tube: `width` x `length` rectangle around center with unit dir."""

    _dim, _space = 2, "the plane"


class Tube3D(_Tube):
    """Spatial tube: cylinder of diameter `width` and given `length`."""

    _dim, _space = 3, "space"


class Shading:
    """Per-tube unions of full-width axis windows.

    Intervals are (lo, hi) in the tube's centered axis parameter, clipped to
    [-length/2, length/2], kept disjoint and sorted.
    """

    def __init__(self, tubes, intervals=None):
        self.tubes = list(tubes)
        if intervals is None:
            intervals = [[(-t.length / 2.0, t.length / 2.0)] for t in self.tubes]
        if len(intervals) != len(self.tubes):
            raise ValueError("one interval list per tube required")
        self.intervals = [_merge_intervals(iv, t.length)
                          for iv, t in zip(intervals, self.tubes)]

    def density(self, i: int) -> float:
        total = sum(hi - lo for lo, hi in self.intervals[i])
        return total / self.tubes[i].length

    def min_density(self) -> float:
        return min(self.density(i) for i in range(len(self.tubes)))

    @classmethod
    def full(cls, tubes) -> "Shading":
        return cls(tubes)

    @classmethod
    def random_fraction(cls, tubes, density: float, seed: int = 0) -> "Shading":
        """One random window of the given density in (0, 1] per tube."""
        if not 0 < density <= 1:
            raise ValueError(f"shading density must lie in (0, 1], got {density}")
        rng = np.random.default_rng(seed)
        ivs = []
        for t in tubes:
            span = density * t.length
            lo = rng.uniform(-t.length / 2.0, t.length / 2.0 - span)
            ivs.append([(lo, lo + span)])
        return cls(tubes, ivs)


def _merge_intervals(intervals, length: float):
    half = length / 2.0
    clipped = [(max(lo, -half), min(hi, half)) for lo, hi in intervals if hi > lo]
    clipped.sort()
    out: list[tuple[float, float]] = []
    for lo, hi in clipped:
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract_windows(intervals, windows):
    """Remove the windows from the interval union."""
    out = list(intervals)
    for wlo, whi in windows:
        nxt = []
        for lo, hi in out:
            if whi <= lo or wlo >= hi:
                nxt.append((lo, hi))
                continue
            if wlo > lo:
                nxt.append((lo, wlo))
            if whi < hi:
                nxt.append((whi, hi))
        out = nxt
    return out


# ---------------------------------------------------------------------------
# two-ends decomposition


@dataclass(frozen=True)
class TwoEndsResult:
    """Excision family and the residual overlap certificate."""

    tubes_out: tuple[Tube2D, ...]                 # the excision family
    selection: tuple[tuple[int, ...], ...]        # indices into tubes_out, per tube
    overlap_measured: int                         # realized residual multiplicity
    overlap_upper: int                            # certified upper bound on it
    rich_threshold: float
    rounds_run: int
    delta: float
    span: float                                   # the Delta parameter
    n_tubes: int
    exact_net: bool

    @property
    def overlap_bound(self) -> float:
        """Reference bound C * Delta^-2 sqrt(n) with C = 100."""
        return 100.0 * self.span**-2 * np.sqrt(self.n_tubes)

    @property
    def selection_bound(self) -> float:
        """Reference bound 10 * log_{2/Delta}(1/delta) on per-tube selections."""
        return 10.0 * np.log(1.0 / self.delta) / np.log(2.0 / self.span)

    @property
    def max_selection(self) -> int:
        return max((len(s) for s in self.selection), default=0)


def _lattice_spans(center, vdir, half_len, half_wid, h):
    """Column spans of the global lattice (step h) inside a rotated rectangle.

    Returns (ix, iy_lo, counts): the column at x = ix * h holds the points
    iy_lo, ..., iy_lo + counts - 1 (times h).
    """
    perp = np.array([-vdir[1], vdir[0]])
    corners = np.array([center + st * half_len * vdir + sw * half_wid * perp
                        for st in (-1, 1) for sw in (-1, 1)])
    ix = np.arange(int(np.floor(corners[:, 0].min() / h)),
                   int(np.ceil(corners[:, 0].max() / h)) + 1, dtype=np.int64)
    ax = ix * h - center[0]
    # column x cuts the rectangle in a y-interval; constraints are
    # |t| <= hl and |s| <= hw with t, s affine in y - c1 at fixed x
    lo, hi, ok = np.full(ix.size, -np.inf), np.full(ix.size, np.inf), np.ones(ix.size, bool)
    for coef, c0, bound in ((vdir[1], vdir[0], half_len), (perp[1], perp[0], half_wid)):
        lo, hi, ok = _clip(lo, hi, ok, ax * c0, coef, bound, 1e-15)
    # adding c1 is monotone under rounding, so it commutes with the clip
    iy_lo = np.ceil((lo + center[1]) / h - 1e-12).astype(np.int64)
    iy_hi = np.floor((hi + center[1]) / h + 1e-12).astype(np.int64)
    counts = np.where(ok, np.maximum(iy_hi - iy_lo + 1, 0), 0)
    keep = counts > 0
    return ix[keep], iy_lo[keep], counts[keep]


def _axial(t, ix, iy, h):
    """Axial coordinates on tube t of the lattice points (ix h, iy h), summed
    in coordinate order, so a point's value does not depend on the array it
    sits in."""
    return (ix * h - t.center[0]) * t.dir[0] + (iy * h - t.center[1]) * t.dir[1]


def _lattice_net(tubes, dilate: float, h: float):
    """Global-lattice points (step h) of every tube dilated by `dilate`.

    Returns (spans, at, cover).  spans[i] is tube i's (ix, iy_lo, counts,
    first): its column at x = ix h holds the points iy_lo, ..., iy_lo +
    counts - 1 (times h), whose ids are first, ..., first + counts - 1.  The
    ids number the distinct points densely in 0..at[-1] (equal points, equal
    ids): the column spans of all tubes are merged where they overlap and
    numbered one merged interval after another.  at[j] is the id of the j-th
    span end in (column, row) order, ascending, and cover[j] the multiplicity
    (the number of spans holding the id) of the ids at[j], ..., at[j+1] - 1,
    so the one sort that numbers the net also counts it.  An empty net has
    empty `at` and `cover`.
    """
    spans = [_lattice_spans(t.center, t.dir, dilate * t.length, dilate * t.width, h)
             for t in tubes]
    ix, lo, c = (np.concatenate([s[k] for s in spans]) for k in range(3))
    # each column's openings and closings cancel, so one running coverage over
    # all columns finds the merged intervals: one opens where the coverage
    # leaves 0 and closes where it returns to 0; openings sort first at a tie
    n_spans = ix.size
    at = np.concatenate([lo, lo + c])
    order = np.lexsort((np.repeat([0, 1], n_spans), at, np.tile(ix, 2)))
    at = at[order]  # the span ends, sorted; shifted to ids below
    opening = order < n_spans
    cover = np.cumsum(np.where(opening, 1, -1))
    starts = opening & (cover == 1)
    m_lo, m_hi = at[starts], at[~opening & (cover == 0)]
    # point y of a merged interval has id y + off: the sorted ends from the
    # interval's opening to the next one's shift by its off, and each span's
    # lowest point goes back to its tube
    off = np.cumsum(m_hi - m_lo) - m_hi
    at += np.repeat(off, np.diff(np.flatnonzero(starts), append=at.size))
    first = np.empty(n_spans, dtype=np.int64)
    first[order[opening]] = at[opening]
    first = np.split(first, np.cumsum([s[0].size for s in spans])[:-1])
    return [s + (f,) for s, f in zip(spans, first)], at, cover[:-1]


class _TubeArrays:
    """Column arrays of a tube family for vectorized geometry."""

    def __init__(self, tubes):
        self.centers = np.array([t.center for t in tubes])
        self.dirs = np.array([t.dir for t in tubes])
        self.perps = np.stack([-self.dirs[:, 1], self.dirs[:, 0]], axis=1)
        self.widths = np.array([t.width for t in tubes])
        self.lengths = np.array([t.length for t in tubes])


def _crossing_intervals(arr: _TubeArrays, i: int, dilate: float):
    """Axis footprints on tube i of the dilated other tubes (vectorized)."""
    vi = arr.dirs[i]
    rel = arr.centers[i] - arr.centers
    lo = np.full(arr.centers.shape[0], -arr.lengths[i])
    hi = np.full(arr.centers.shape[0], arr.lengths[i])
    ok = np.ones(arr.centers.shape[0], dtype=bool)
    for axes, bounds in ((arr.dirs, dilate * arr.lengths / 2.0),
                         (arr.perps, dilate * arr.widths / 2.0)):
        lo, hi, ok = _clip(lo, hi, ok, np.einsum("ij,ij->i", rel, axes), axes @ vi, bounds,
                           1e-15)
    ok[i] = False
    ok &= lo < hi
    return lo[ok], hi[ok]


def _stab_max(lo: np.ndarray, hi: np.ndarray, alive_intervals):
    """Max number of [lo, hi) intervals sharing a point inside the alive set.

    Returns (count, t) at the first sorted event time where the running count
    reaches its largest alive value, or (0, 0.0) when no alive event has a
    positive count.
    """
    if lo.size == 0:
        return 0, 0.0
    times = np.concatenate([lo, hi])
    steps = np.repeat([1.0, -1.0], lo.size)
    # at equal times openings come first
    order = np.lexsort((-steps, times))
    t = times[order]
    alive = np.zeros(t.size, dtype=bool)
    for l, h in alive_intervals:
        alive |= (l - 1e-12 <= t) & (t <= h + 1e-12)
    run = np.where(alive, np.cumsum(steps[order]), 0.0)
    k = int(np.argmax(run))
    if not run[k] > 0:
        return 0, 0.0
    return int(run[k]), float(t[k])


def two_ends_decompose(tubes, delta: float, span: float,
                       rich_constant: float = 4.0) -> TwoEndsResult:
    """Iterative excision of short coaxial windows until residuals spread out.

    `span` is the length of the excised windows relative to unit tubes (the
    decomposition scale).  `rich_constant` scales the rich-point threshold
    r = rich_constant * span^-2 sqrt(n); with the default the threshold often
    exceeds n at desk scale and the loop is a no-op, which is fine: the
    certificate bound is then trivially satisfied.

    At most 3 log(1/delta) / log(2/span) rounds run.  The rich points and the
    residual overlap are counted exactly on the delta/10 net when the net has
    at most 4e7 cells; otherwise the windows follow interval-stabbing
    profiles and the overlap is bracketed by an exact lower evaluation at
    candidate maxima and a stabbing upper bound.  The exact path holds the
    net as column spans of ids: the rounds take from them only the points
    whose count reaches r before round 1 (the candidates, read off the
    coverage of the one sort of the span ends that numbers the net) with
    their axial coordinates, and the residual streams the net tube by tube
    into one count of the narrowest unsigned type that holds n per distinct
    net point.  Its tracemalloc peak is 10.4 MB for 48 unit tubes at
    delta = 2^-6, mostly the candidates of the rounds, and 5.6 MB for two
    unit tubes in opposite corners of [-2, 2]^2 at delta = 2^-8.  Raises
    FloatingPointError when (delta/10)^2 or the rich threshold is not a
    positive normal float.
    """
    tubes = list(tubes)
    n = len(tubes)
    if n == 0:
        raise ValueError("empty tube family")
    if any(t.center.shape != (2,) for t in tubes):
        raise ValueError("two-ends decomposition needs planar (2D) tubes")
    if not (np.isfinite(rich_constant) and rich_constant > 0):
        raise ValueError(f"rich_constant must be positive and finite, got {rich_constant}")
    if not 0 < delta < span < 1:
        raise ValueError("need 0 < delta < span < 1")
    if span < 8.0 * delta:
        raise ValueError("need span >= 8 * delta for the excision geometry")
    for t in tubes:
        if np.any(np.abs(t.center) > 2.0 + 1e-9):
            raise ValueError("tubes must lie within [-2.0, 2.0]^2")
    h = delta / 10.0
    h2 = _require_normal("the squared net step (delta/10)^2", h**2)
    r = _require_normal("the rich threshold", rich_constant * span**-2 * np.sqrt(n))
    max_rounds = int(np.ceil(3.0 * np.log(1.0 / delta) / np.log(2.0 / span)))

    est_cells = sum(16 * t.length * t.width / h2 + 8 * t.length / h for t in tubes)
    exact = est_cells <= 4e7

    picks: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n)]
    rounds_run = 0
    if r <= n:  # otherwise no point can ever be rich
        rounds_run = (_excise_exact(tubes, delta, span, r, max_rounds, picks) if exact
                      else _excise_approx(tubes, span, r, max_rounds, picks))

    reps, selection = _merge_picks(picks, delta, span)

    # residual sets: 2T minus the selected representatives
    centers = np.array([rep.center for rep in reps]).reshape(-1, 2)
    final_alive: list[list[tuple[float, float]]] = []
    for t, sel in zip(tubes, selection):
        # np.vecdot takes the BLAS dot of `(c - t.center) @ t.dir` on each row
        tc = np.vecdot(centers[sel] - t.center, t.dir).tolist()
        windows = [(c - span / 2.0, c + span / 2.0) for c in tc]
        final_alive.append(_subtract_windows([(-t.length, t.length)], windows))

    if exact:
        measured = _exact_residual_overlap(tubes, final_alive, h)
        upper = measured
    else:
        measured, upper = _approx_residual_overlap(tubes, final_alive, h)

    return TwoEndsResult(tubes_out=tuple(reps),
                         selection=tuple(tuple(s) for s in selection),
                         overlap_measured=int(measured), overlap_upper=int(upper),
                         rich_threshold=float(r), rounds_run=rounds_run,
                         delta=delta, span=span,
                         n_tubes=n, exact_net=exact)


def _excise_exact(tubes, delta, span, r, max_rounds, picks) -> int:
    """Excision rounds with exact rich counts on the delta/10 net of 2T.

    Multiplicities only fall, so a point not rich before round 1 never is:
    the rounds keep only the other points (the candidates) of each tube, and
    only the candidates get axial coordinates.  Appends each tube's picked
    windows to `picks` and returns the rounds run.
    """
    h = delta / 10.0
    spans, at, cover = _lattice_net(tubes, 2.0, h)
    rich = cover >= r
    lengths = np.diff(at)[rich]
    cand, mult = _ranges(at[:-1][rich], lengths), np.repeat(cover[rich], lengths)
    # per tube: candidate numbers, axial coordinates and alive flags; a span's
    # candidates are those of its id range
    net = []
    for t, (ix_t, lo_t, c_t, first_t) in zip(tubes, spans):
        a = np.searchsorted(cand, first_t)
        n_c = np.searchsorted(cand, first_t + c_t) - a
        ids = _ranges(a, n_c)
        iy = cand[ids] + np.repeat(lo_t - first_t, n_c)
        net.append((ids, _axial(t, np.repeat(ix_t, n_c), iy, h), np.ones(ids.size, bool)))
    win = span / 4.0
    width_bins = max(1, int(round(win / delta)))
    rounds_run = 0
    for rounds_run in range(1, max_rounds + 1):
        # richmask stays fixed for the round while mult drops by the points
        # each window excises
        richmask = mult >= r
        if not richmask.any():
            return rounds_run - 1
        picked = False
        for tube, (ids, ti, alive_i), tube_picks in zip(tubes, net, picks):
            ts = ti[alive_i & richmask[ids]]
            if ts.size == 0:
                continue
            bins = np.arange(-2 * tube.length, 2 * tube.length + delta, delta)
            if bins.size <= width_bins:  # a tube shorter than one window
                bins = np.arange(width_bins + 1) * delta - 2 * tube.length
            histo, _ = np.histogram(ts, bins=bins)
            csum = np.concatenate([[0], np.cumsum(histo)])
            sums = csum[width_bins:] - csum[:-width_bins]
            g = int(np.argmax(sums))
            if sums[g] == 0:
                continue
            tc = bins[g] + win / 2.0
            lo, hi = tc - span / 4.0, tc + span / 4.0
            tube_picks.append((tube.center + tc * tube.dir, tube.dir))
            cut = alive_i & (ti >= lo) & (ti <= hi)
            alive_i &= ~cut
            mult[ids[cut]] -= 1
            picked = True
        if not picked:
            break
    return rounds_run


def _excise_approx(tubes, span, r, max_rounds, picks) -> int:
    """Excision rounds driven by stabbing profiles of the dilated crossings.

    Appends each tube's picked windows to `picks` and returns the rounds run.
    """
    arr = _TubeArrays(tubes)
    # the crossings do not depend on the round: only the alive windows shrink
    crossings = [_crossing_intervals(arr, i, dilate=4.0) for i in range(len(tubes))]
    excised: list[list[tuple[float, float]]] = [[] for _ in tubes]
    rounds_run = 0
    for rounds_run in range(1, max_rounds + 1):
        new_any = False
        for i, tube in enumerate(tubes):
            lo, hi = crossings[i]
            alive = _subtract_windows([(-2 * tube.length, 2 * tube.length)], excised[i])
            stab, t_at = _stab_max(lo, hi, alive)
            if stab + 1 < r:
                continue
            excised[i].append((t_at - span / 4.0, t_at + span / 4.0))
            picks[i].append((tube.center + t_at * tube.dir, tube.dir))
            new_any = True
        if not new_any:
            return rounds_run - 1
    return rounds_run


def _merge_picks(picks, delta: float, span: float):
    """Merge picked windows into an essentially distinct excision family.

    Each pick (centre, dir) joins the first earlier representative within
    4 delta in centre and 4 delta / span in direction, or starts a new one.
    The row norms are those of np.linalg.norm and direction_distance, bit for
    bit (`_norms`).
    """
    reps: list[Tube2D] = []
    centers = np.empty((sum(len(p) for p in picks), 2))
    dirs = np.empty_like(centers)
    selection: list[list[int]] = []
    for tube_picks in picks:
        sel: list[int] = []
        for center, vdir in tube_picks:
            k = len(reps)
            turn = np.minimum(_norms(dirs[:k] - vdir), _norms(dirs[:k] + vdir))
            near = (_norms(centers[:k] - center) < 4.0 * delta) & (turn < 4.0 * delta / span)
            found = int(np.argmax(near)) if near.any() else k
            if found == k:
                reps.append(Tube2D(center, vdir, 8.0 * delta, span))
                centers[k], dirs[k] = reps[k].center, reps[k].dir
            if found not in sel:
                sel.append(found)
        selection.append(sel)
    return reps, selection


def _exact_residual_overlap(tubes, alive_intervals, h: float) -> int:
    spans, at, _ = _lattice_net(tubes, 1.0, h)
    mult = np.zeros(at.max(initial=0), dtype=np.min_scalar_type(len(tubes)))
    for t, (ix_t, lo_t, c_t, first_t), ivs in zip(tubes, spans, alive_intervals):
        ids = _ranges(first_t, c_t)
        ti = _axial(t, np.repeat(ix_t, c_t), _ranges(lo_t, c_t), h)
        keep = np.zeros(ti.size, dtype=bool)
        for lo, hi in ivs:
            keep |= (ti >= lo) & (ti <= hi)
        mult[ids[keep]] += 1
    return int(mult.max(initial=0))


def _approx_residual_overlap(tubes, alive_intervals, h: float):
    """(candidate-evaluated max, stabbing upper bound) for residual overlap."""
    candidates = []
    upper = 1
    arr = _TubeArrays(tubes)
    for i, t in enumerate(tubes):
        lo, hi = _crossing_intervals(arr, i, dilate=2.0)
        stab, t_at = _stab_max(lo, hi, alive_intervals[i])
        upper = max(upper, stab + 1)
        snapped = np.round((t.center + t_at * t.dir) / h) * h
        candidates.append(snapped)
        if alive_intervals[i]:
            mid = (alive_intervals[i][0][0] + alive_intervals[i][0][1]) / 2.0
            candidates.append(np.round((t.center + mid * t.dir) / h) * h)
    cand = np.array(candidates)
    counts = np.zeros(cand.shape[0], dtype=np.int64)
    for i, t in enumerate(tubes):
        rel = cand - t.center
        tt = rel @ t.dir
        ss = rel @ np.array([-t.dir[1], t.dir[0]])
        inside = np.abs(ss) <= t.width  # width of 2T
        ok = np.zeros(cand.shape[0], dtype=bool)
        for lo, hi in alive_intervals[i]:
            ok |= (tt >= lo) & (tt <= hi)
        counts += inside & ok
    measured = int(counts.max()) if counts.size else 0
    return measured, max(upper, measured)


# ---------------------------------------------------------------------------
# union volumes and hairbrush checks


def shading_union_volume(tubes, shading: Shading, resolution: float) -> float:
    """Volume (area in 2D) of the shaded union by cell-center counting.

    A cell of side `resolution` counts when its centre lies in one shaded
    window (`_in_window`): within half the window length of the window's
    centre along the axis and within half the width of the axis.  The cells
    tested are those of the columns that can meet the window
    (`_column_cells`), or of the window's bounding box (`_box_cells`) for a
    tube near a lattice axis.
    """
    min_width = min(t.width for t in tubes)
    if resolution > min_width / 4.0 + 1e-12:
        raise ValueError("resolution too coarse: need <= min width / 4")
    dim = tubes[0].center.shape[0]
    occupied = []
    for t, ivs in zip(tubes, shading.intervals):
        for lo, hi in ivs:
            window, box = _window(t, lo, hi, resolution)
            cells = _column_cells(*window, box, resolution)
            occupied.append(_box_cells(*window, box, resolution) if cells is None else cells)
    return _distinct_rows(np.concatenate(occupied or [np.empty((0, dim), int)])) \
        * resolution**dim


def _window(t, lo: float, hi: float, res: float):
    """((centre, dir, perp frame, half length, radius), (lo, hi) box corners).

    The box holds every cell whose centre can lie in the window lo..hi of
    tube t, with one cell to spare on each side.
    """
    perp_frame = complete_frame(t.dir)[:-1]
    half_t = (hi - lo) / 2.0
    center = t.center + (lo + hi) / 2.0 * t.dir
    span = np.abs(t.dir) * half_t + np.abs(perp_frame).sum(axis=0) * t.width / 2.0
    box = (np.floor((center - span) / res).astype(int) - 1,
           np.ceil((center + span) / res).astype(int) + 1)
    return (center, t.dir, perp_frame, half_t, t.width / 2.0), box


def _box_cells(center, vdir, perp_frame, half_t, radius, box, res):
    """Cells of the box lo..hi (index corners) that pass `_in_window`."""
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(*box)]
    cells = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return cells[_in_window(cells, center, vdir, perp_frame, half_t, radius, res)]


def _in_window(cells, center, vdir, perp_frame, half_t, radius, res):
    """Mask of the cells whose centres lie within half_t of the window centre
    along the axis vdir and within `radius` of the axis.  The axial product
    (and in 2D the transverse one) is summed in coordinate order, one plane
    at a time, so a cell's verdict does not depend on the array it sits in."""
    rel = _planes((cells + 0.5) * res - center)
    tt = sum(x * v for x, v in zip(rel, vdir))
    if len(rel) == 2:
        ss = np.abs(sum(x * v for x, v in zip(rel, perp_frame[0])))
    else:
        ss = np.sqrt(np.maximum(sum(x * x for x in rel) - tt**2, 0.0))
    return (np.abs(tt) <= half_t) & (ss <= radius)


def _column_cells(center, vdir, perp_frame, half_t, radius, box, res):
    """`_box_cells` from the columns that can meet the window, or None (use
    the box) when the tube is within 1e-3 rad of a lattice axis, where the
    box is already tight.

    Columns run along the lattice axis closest to the tube's.  Each keeps
    the cells of the box whose centres lie within radius + res of the tube
    axis and within half_t + res of the window centre along it: a superset,
    by a cell's width, of the box cells that pass `_in_window`.
    """
    dim = vdir.size
    a = int(np.argmax(np.abs(vdir)))
    A = 1.0 - vdir[a] ** 2
    if A < 1e-6:
        return None
    others = [k for k in range(dim) if k != a]
    grid = np.meshgrid(*[np.arange(box[0][k], box[1][k] + 1) for k in others], indexing="ij")
    cols = np.stack([g.ravel() for g in grid], axis=1)
    # w: the column's point at coordinate 0 along axis a, relative to the
    # centre; the point s further lies at squared distance
    # A s^2 + 2 B s + |w|^2 - b^2 from the tube axis, least (m) at s = -B / A
    w = np.empty((cols.shape[0], dim))
    w[:, others] = (cols + 0.5) * res - center[others]
    w[:, a] = -center[a]
    b = w @ vdir
    B = w[:, a] - b * vdir[a]
    m = (w**2).sum(axis=1) - b**2 - B * B / A
    reach = (radius + res) ** 2
    half = np.sqrt(np.maximum(reach - m, 0.0) / A)
    s_lo, s_hi, ok = _clip(-B / A - half, -B / A + half, m <= reach, b, vdir[a],
                           half_t + res, 1e-15)
    k_lo = np.maximum(np.ceil(s_lo / res - 0.5).astype(np.int64), box[0][a])
    k_hi = np.minimum(np.floor(s_hi / res - 0.5).astype(np.int64), box[1][a])
    counts = np.where(ok, np.maximum(k_hi - k_lo + 1, 0), 0)
    cells = np.empty((int(counts.sum()), dim), dtype=np.int64)
    cells[:, others] = np.repeat(cols, counts, axis=0)
    cells[:, a] = _ranges(k_lo, counts)
    return cells[_in_window(cells, center, vdir, perp_frame, half_t, radius, res)]


def _distinct_rows(cells: np.ndarray) -> int:
    """Number of distinct integer rows, counted as linear keys over their
    bounding box, or by `_CellIndex` when the box has 2^62 cells or more."""
    if cells.shape[0] == 0:
        return 0
    lo = cells.min(axis=0)
    dims = tuple(int(x) for x in cells.max(axis=0) - lo + 1)
    if math.prod(dims) >= 2**62:
        return int(_CellIndex(cells, 1.0).keys.size)
    return int(_sorted_unique(np.ravel_multi_index(tuple((cells - lo).T), dims)).size)


@dataclass(frozen=True)
class BrushReport:
    measured_volume: float
    bound: float
    constant_needed: float
    density: float


def _tube_arrays(tubes):
    return (np.array([t.center for t in tubes]), np.array([t.dir for t in tubes]),
            np.array([t.length for t in tubes]))


def tube_box_counts_3d(tubes, scales):
    """Max tubes whose axis-chord in a u x w x 1 box is at least half their length."""
    if not tubes:
        return [0] * len(scales)
    centers, dirs, lengths = _tube_arrays(tubes)
    need, reach = _need_reach(lengths, 3)
    best, _, _ = _sweep(centers, dirs, need, scales, subdivide=False, reach=reach)
    return best


def _kt_profile(tubes, delta: float, t1: float, t2: float | None):
    """Katz-Tao profile rows ((u, w), count, a, b) of a tube family at width
    delta: on the grid `_box_scales(delta, delta, dim)`, the tubes in the best
    u x w x 1 box (2D: w x 1 rectangle) and the `_kt_weights` (2D: t2 unused)."""
    dim = tubes[0].center.shape[0]
    scales = _box_scales(delta, delta, dim)
    weights = _kt_weights(scales, delta, t1, t2 if dim == 3 else None)
    counts = tube_box_counts_3d(tubes, scales) if dim == 3 else \
        m_tubes_2d(*_tube_arrays(tubes), [w for _, w in scales])
    return [(scale, got, a, b) for scale, got, (a, b) in zip(scales, counts, weights)]


def _verify_kt(tubes, delta: float, K: float, t1: float, t2: float | None = None):
    """Raise HypothesisViolation unless every profile count is at most K * a * b."""
    violations = []
    for scale, got, a, b in _kt_profile(tubes, delta, t1, t2):
        cap = K * a * b
        if got > cap * (1 + 1e-9):
            violations.append((*scale, got, cap))
    if violations:
        kind = "planar" if tubes[0].center.shape[0] == 2 else "spatial"
        raise HypothesisViolation(f"{kind} Katz-Tao hypothesis failed", violations)


def _check_brush(tubes, shading: Shading, exponents, K: float, eps: float,
                 bound) -> BrushReport:
    """Verify the Katz-Tao hypothesis with K and measure the shaded union
    against `bound(delta, density, n_tubes)`."""
    if not (np.isfinite(K) and K > 0):
        raise ValueError(f"Katz-Tao constant K must be finite and positive, got {K}")
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    delta = max(tb.width for tb in tubes)
    lam = shading.min_density()
    if lam < delta:
        raise ValueError("shading density must be at least the tube width")
    _verify_kt(tubes, delta, K, *exponents)
    vol = shading_union_volume(tubes, shading, delta / 4.0)
    value = bound(delta, lam, len(tubes))
    return BrushReport(measured_volume=vol, bound=value,
                       constant_needed=value / vol if vol > 0 else np.inf,
                       density=lam)


def check_planar_brush(tubes, shading: Shading, t: float, K: float,
                       eps: float = 0.1) -> BrushReport:
    """Measured shaded-union area against the planar concentration lower bound."""
    return _check_brush(tubes, shading, (t,), K, eps,
                        lambda delta, lam, n: delta**eps * lam**2 * delta**t * n / K)


def check_space_brush(tubes, shading: Shading, t1: float, t2: float, K: float,
                      eps: float = 0.1) -> BrushReport:
    """Measured shaded-union volume against the hairbrush lower bound.

    Raises ValueError unless t1 + t2 > 0 (the bound's exponent divides by it).
    """
    if t1 + t2 <= 0:
        raise ValueError(f"alpha = (2 + t1) / (2 (t1 + t2)) needs t1 + t2 > 0, "
                         f"got t1={t1}, t2={t2}")

    def bound(delta, lam, n):
        alpha = (2.0 + t1) / (2.0 * t1 + 2.0 * t2)
        return delta**eps * K**-alpha * lam**2.5 * delta**2 * n ** alpha
    return _check_brush(tubes, shading, (t1, t2), K, eps, bound)


# ---------------------------------------------------------------------------
# Katz-Tao test-family generator

# rungs of the generator's dyadic probe ladder, so at most 64 x 64 box scales
# in 3D; delta = 1/128 gives 7
_MAX_PROBE_RUNGS = 64


def generate_katz_tao_tubes(delta: float, t1: float, t2: float, count: int,
                            seed: int = 0, dim: int = 3):
    """Rejection-sampled tube family targeting the concentration axioms.

    Candidates are accepted only while every dyadic box probe anchored at the
    candidate stays below 2 * (u/delta)^t1 * (w/delta)^t2 (2D: the
    single-exponent w x 1 variant), the weights taken by `_kt_weights`.  The
    probes sit on the dyadic ladder from 2 * delta; a ladder of more than
    _MAX_PROBE_RUNGS rungs, a count over the generators' member cap or a
    dim other than 2 or 3 raises ValueError.  Returns (tubes,
    complete_flag); the flag is False when the attempt budget of 100 * count
    was exhausted.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    _check_members(f"count={count}", count)
    rng = np.random.default_rng(seed)
    rungs = len(dyadic_ladder(2 * delta))
    if rungs > _MAX_PROBE_RUNGS:
        raise ValueError(f"delta={delta!r} gives a probe ladder of {rungs} scales, "
                         f"over the cap of {_MAX_PROBE_RUNGS}")
    scales = _box_scales(delta, 2 * delta, dim)
    caps = [2.0 * a * b for a, b in _kt_weights(scales, delta, t1, t2 if dim == 3 else None)]
    halves = _box_halves(scales, dim)
    tubes: list = []
    attempts = 0
    budget = 100 * count
    tube_cls = Tube3D if dim == 3 else Tube2D
    # rows 0..k-1 hold the k accepted tubes, row k the candidate
    centers = np.empty((count + 1, dim))
    dirs = np.empty((count + 1, dim))
    need, reach = _need_reach(1.0, dim)  # every tube has length 1
    while len(tubes) < count and attempts < budget:
        attempts += 1
        center = rng.uniform(0.2, 0.8, size=dim)
        vdir = rng.normal(size=dim)
        cand = tube_cls(center, vdir, delta, 1.0)
        k = len(tubes)
        centers[k] = cand.center
        dirs[k] = cand.dir
        counts = _box_counts(centers[:k + 1], dirs[:k + 1], need, cand.center[None],
                             complete_frame(cand.dir)[None], halves, reach)[0]
        if all(got <= cap for got, cap in zip(counts, caps)):
            tubes.append(cand)
    return tubes, len(tubes) == count


def measure_kt_constant(tubes, delta: float, t1: float, t2: float | None = None) -> float:
    """Realized concentration constant: max box count over the exponent profile.

    With this constant the family is certified Katz-Tao by construction, so
    it can feed the brush checks as the verified hypothesis.
    """
    worst = 1.0
    for _, got, a, b in _kt_profile(tubes, delta, t1, t2):
        worst = max(worst, got / (a * b))
    return float(worst)
