"""Oracles for the batched box engine.

`concentration._box_counts` scores every candidate box against every scale in
blocks of at most `_CHUNK` (candidate, scale, member) elements, each block's
local coordinates from one stacked product.  One box search serves both
dimensions: `_box_candidates` builds the 2D and 3D candidates as row arrays,
`_box_halves` maps (u, w) scales to half-extents (the w x 1 rectangle in
2D), and `_sweep` scores them for `m_lines_sweep`, `m_tubes_2d` (all widths
in one pass) and `tube_box_counts_3d`; the generator probe calls
`_box_counts` directly.  The `old_*` functions below are test-local copies
of the scalar code the engine replaced: one box per chord call, the
per-scale candidate generator, the per-candidate `_sweep` loop, one
`m_tubes_2d` call per width with its own rectangle loop, and frames and
closest points built one pair at a time with `np.cross` and
`np.linalg.norm`.  `TestLocalCoordinates` compares the stacked local
coordinates with one `np.matmul` per candidate.  The new code must return
exactly what the copies return, compared with `==`, and arrays bit for bit
(`same_bits`, which also tells -0.0 from 0.0).
"""

import tracemalloc

import numpy as np
import pytest

from heilbronn import concentration
from heilbronn.concentration import (
    _box_candidates,
    _closest_points,
    _pair_frame,
    _span_steps,
    _subsample,
    dyadic_pairs,
    m_lines_2d,
    m_lines_sweep,
    m_tubes_2d,
)
from heilbronn.configurations import (
    generate_bush,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
)
from heilbronn.geometry import Box, Line, _norms, complete_frame
from heilbronn.tubes import Tube2D, Tube3D, tube_box_counts_3d

from conftest import box_counts, random_lines

# ---------------------------------------------------------------------------
# test-local copies of the replaced code


def old_chords_from_local(B, V, half, reach=np.inf):
    n, d = B.shape
    tmax = np.full(n, reach, dtype=float)
    tmin = -tmax
    alive = np.ones(n, dtype=bool)
    for i in range(d):
        v = V[:, i]
        b = B[:, i]
        h = half[i]
        par = np.abs(v) < 1e-14
        alive &= ~(par & (np.abs(b) > h))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-h - b) / v
            t2 = (h - b) / v
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        upd = ~par
        tmin = np.where(upd, np.maximum(tmin, lo), tmin)
        tmax = np.where(upd, np.minimum(tmax, hi), tmax)
    chord = np.clip(tmax - tmin, 0.0, None)
    chord = np.where(np.isfinite(chord), chord, 0.0)
    return np.where(alive, chord, 0.0)


def old_complete_frame(axis):
    pick = np.argmin(np.abs(axis))
    helper = np.zeros(3)
    helper[pick] = 1.0
    e1 = np.cross(axis, helper)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return np.vstack([e1, e2, axis])


def old_closest_points(b1, v1, b2, v2):
    w0 = b1 - b2
    b = float(v1 @ v2)
    dd = float(v1 @ w0)
    e = float(v2 @ w0)
    den = 1.0 - b * b
    if abs(den) < 1e-14:
        t1 = 0.0
        t2 = e
    else:
        t1 = (b * e - dd) / den
        t2 = (e - b * dd) / den
    return b1 + t1 * v1, b2 + t2 * v2


def old_pair_frame(b1, v1, b2, v2):
    proj = v2 - (v2 @ v1) * v1
    np_ = np.linalg.norm(proj)
    if np_ > 1e-9:
        e2 = proj / np_
    else:
        off = (b2 - b1) - ((b2 - b1) @ v1) * v1
        no = np.linalg.norm(off)
        if no > 1e-9:
            e2 = off / no
        else:
            return old_complete_frame(v1)
    e1 = np.cross(v1, e2)
    n1 = np.linalg.norm(e1)
    if n1 < 1e-9:
        return old_complete_frame(v1)
    e1 = e1 / n1
    e2 = np.cross(e1, v1) * -1.0
    e2 = e2 / np.linalg.norm(e2)
    return np.vstack([e1, e2, v1])


def old_box_candidates(bases, dirs, anchor_cap=48, partner_cap=24):
    n = bases.shape[0]
    cube_center = np.full(3, 0.5)
    cands = []
    for i in _subsample(n, 192):
        t = (cube_center - bases[i]) @ dirs[i]
        cands.append((bases[i] + t * dirs[i], old_complete_frame(dirs[i])))
    for i in _subsample(n, anchor_cap):
        for j in _subsample(n, partner_cap):
            if i == j:
                continue
            p1, p2 = old_closest_points(bases[i], dirs[i], bases[j], dirs[j])
            frame = old_pair_frame(bases[i], dirs[i], bases[j], dirs[j])
            cands.append(((p1 + p2) / 2.0, frame))
    return cands


def old_counts_for_candidate(bases, dirs, need, center, frame, scales):
    B = (bases - center) @ frame.T
    V = dirs @ frame.T
    for (u, w) in scales:
        half = np.array([u / 2.0, w / 2.0, 0.5])
        chords = old_chords_from_local(B, V, half)
        yield int(np.count_nonzero(chords >= need))


def fewer_candidates(monkeypatch, anchors, partners):
    """Build the box candidates from fewer anchors and partners than the
    library's fixed 48 and 24."""
    monkeypatch.setattr(concentration, "_ANCHORS", anchors)
    monkeypatch.setattr(concentration, "_PARTNERS", partners)


def old_sweep(bases, dirs, need, scales, anchor_cap=48, partner_cap=24, subdivide=True):
    cands = old_box_candidates(bases, dirs, anchor_cap, partner_cap)
    best = [0] * len(scales)
    best_cand = [cands[0]] * len(scales)

    def score(candidates):
        for center, frame in candidates:
            counts = old_counts_for_candidate(bases, dirs, need, center, frame, scales)
            for s, c in enumerate(counts):
                if c > best[s]:
                    best[s] = c
                    best_cand[s] = (center, frame)

    score(cands)
    if subdivide:
        children = []
        for s_parent, (u_p, w_p) in enumerate(scales):
            center, frame = best_cand[s_parent]
            for (u_c, w_c) in scales:
                if u_c > u_p and w_c > w_p:
                    continue
                shifts_u = _span_steps(u_p, u_c)
                shifts_w = _span_steps(w_p, w_c)
                if len(shifts_u) * len(shifts_w) <= 1:
                    continue
                for du in shifts_u:
                    for dw in shifts_w:
                        children.append((center + du * frame[0] + dw * frame[1], frame))
        score(children)
    return best, best_cand


def old_segment_rect_counts(centers, dirs, lengths, rect_center, rect_dir, w):
    frame = np.array([[-rect_dir[1], rect_dir[0]], rect_dir])
    reach = np.inf if lengths is None else lengths / 2.0
    chords = old_chords_from_local((centers - rect_center) @ frame.T, dirs @ frame.T,
                                   np.array([w / 2.0, 0.5]), reach)
    return int(np.count_nonzero(chords >= (0.5 if lengths is None else reach)))


def old_m_tubes_2d(centers, dirs, lengths, w):
    n = centers.shape[0]
    if n == 0:
        return 0
    best = 0
    for i in _subsample(n, 384):
        best = max(best, old_segment_rect_counts(centers, dirs, lengths,
                                                 centers[i], dirs[i], w))
    for i in _subsample(n, 64):
        for j in _subsample(n, 32):
            if i == j:
                continue
            mid = (centers[i] + centers[j]) / 2.0
            cross = dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0]
            if abs(cross) > 1e-12:
                dbase = centers[j] - centers[i]
                t = (dbase[0] * dirs[j][1] - dbase[1] * dirs[j][0]) / cross
                mid = centers[i] + t * dirs[i]
            best = max(best, old_segment_rect_counts(centers, dirs, lengths,
                                                     mid, dirs[i], w))
    return best


def old_rect_candidates(centers, dirs):
    """The (center, long-side direction) rectangles of the old `m_tubes_2d`,
    in its order."""
    n = centers.shape[0]
    rects = [(centers[i], dirs[i]) for i in _subsample(n, 384)]
    for i in _subsample(n, 64):
        for j in _subsample(n, 32):
            if i == j:
                continue
            mid = (centers[i] + centers[j]) / 2.0
            cross = dirs[i][0] * dirs[j][1] - dirs[i][1] * dirs[j][0]
            if abs(cross) > 1e-12:
                dbase = centers[j] - centers[i]
                t = (dbase[0] * dirs[j][1] - dbase[1] * dirs[j][0]) / cross
                mid = centers[i] + t * dirs[i]
            rects.append((mid, dirs[i]))
    return rects


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# families


def arrays(lines):
    return np.array([ln.base for ln in lines]), np.array([ln.dir for ln in lines])


def axis_lines(n, seed):
    """Lines along the coordinate axes on a 1/8 lattice, with repeats: many
    pairs are parallel (the den < 1e-14 branch), some coincide, and members
    are parallel to box faces (the |v| < 1e-14 branch of the chord)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        base = rng.integers(1, 8, 3) / 8.0
        out.append(Line(base, np.eye(3)[k % 3]))
    return out + out[: n // 4]


def degenerate_lines():
    """Parallel, antiparallel, coincident and almost parallel pairs."""
    v = np.array([0.6, 0.8, 0.0])
    w = np.array([0.0, 0.6, 0.8])
    return [Line([0.5, 0.5, 0.5], v), Line([0.5, 0.5, 0.5], -v),
            Line([0.5 + 0.6, 0.5 + 0.8, 0.5], v), Line([0.2, 0.3, 0.4], v),
            Line([0.5, 0.5, 0.5], v + 1e-12 * w), Line([0.5, 0.5, 0.5], w),
            Line([0.5, 0.5, 0.6], w), Line([0.1, 0.9, 0.5], [0.0, 0.0, 1.0]),
            Line([0.1, 0.9, 0.7], [0.0, 0.0, 1.0]), Line([0.3, 0.3, 0.3], [1.0, 1.0, 1.0])]


FAMILIES_3D = {
    "random60": lambda: random_lines(60, 3, 1),
    "random250": lambda: random_lines(250, 3, 2),
    "axis": lambda: axis_lines(40, 3),
    "degenerate": degenerate_lines,
    "vertical": lambda: generate_vertical(1 / 16, 3).lines(),
    "bush": lambda: generate_bush(1 / 16, 3, 2, seed=1)[1],
    "plane": lambda: generate_plane_example(1 / 8)[1],
}

SCALES = [(1 / 16, 1 / 16), (1 / 16, 1 / 4), (1 / 8, 1 / 2), (1 / 4, 1 / 4),
          (1 / 4, 1.0), (1.0, 1.0)]


def tube_family(n, dim, seed):
    rng = np.random.default_rng(seed)
    cls = Tube3D if dim == 3 else Tube2D
    return [cls(rng.uniform(0.2, 0.8, dim), rng.normal(size=dim), 1 / 32,
                float(rng.uniform(0.1, 1.2))) for _ in range(n)]


def tube_arrays(tubes):
    return (np.array([t.center for t in tubes]), np.array([t.dir for t in tubes]),
            np.array([t.length for t in tubes]))


# ---------------------------------------------------------------------------
# candidate builder


class TestCandidates:
    @pytest.mark.parametrize("name", sorted(FAMILIES_3D))
    def test_candidates_equal_old(self, name):
        bases, dirs = arrays(FAMILIES_3D[name]())
        centers, frames = _box_candidates(bases, dirs)
        old = old_box_candidates(bases, dirs)
        assert same_bits(centers, np.array([c for c, _ in old]))
        assert same_bits(frames, np.array([f for _, f in old]))

    def test_pair_frame_random_pairs(self):
        # 1500 random pairs with parallel, antiparallel and coincident rows
        # (and a few short first directions) mixed in, built in one batch
        rng = np.random.default_rng(4)
        v = rng.normal(size=(1500, 2, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        v[::10, 1] = v[::10, 0]  # parallel
        v[5::10, 1] = -v[5::10, 0]  # antiparallel
        v[7::100, 0] *= 1e-10  # |v1 x e2| < 1e-9
        b = rng.uniform(0, 1, (1500, 2, 3))
        b[::20, 1] = b[::20, 0] + 0.3 * v[::20, 0]  # coincident
        b1, b2, v1, v2 = b[:, 0], b[:, 1], v[:, 0], v[:, 1]
        assert same_bits(_pair_frame(b1, v1, b2, v2),
                         np.array([old_pair_frame(*row) for row in zip(b1, v1, b2, v2)]))
        p1, p2 = _closest_points(b1, v1, b2, v2)
        want = [old_closest_points(*row) for row in zip(b1, v1, b2, v2)]
        assert same_bits(p1, np.array([w[0] for w in want]))
        assert same_bits(p2, np.array([w[1] for w in want]))
        assert same_bits(complete_frame(v1), np.array([old_complete_frame(a) for a in v1]))
        # every degenerate branch is taken by some rows of the batch, and
        # the general case by most
        with np.errstate(divide="ignore", invalid="ignore"):
            den = np.array([1.0 - float(x @ y) ** 2 for x, y in zip(v1, v2)])
            proj = np.array([np.linalg.norm(y - (y @ x) * x) for x, y in zip(v1, v2)])
            off = np.array([np.linalg.norm((q - p) - ((q - p) @ x) * x)
                            for p, x, q in zip(b1, v1, b2)])
            e1 = np.array([np.linalg.norm(np.cross(x, y - (y @ x) * x)) / n
                           for x, y, n in zip(v1, v2, proj)])
        assert np.count_nonzero(np.abs(den) < 1e-14) >= 250
        assert np.count_nonzero((proj <= 1e-9) & (off > 1e-9)) >= 100
        assert np.count_nonzero((proj <= 1e-9) & (off <= 1e-9)) >= 10
        assert np.count_nonzero((proj > 1e-9) & (e1 < 1e-9)) >= 10
        assert np.count_nonzero((proj > 1e-9) & (e1 >= 1e-9)) >= 1000

    def test_degenerate_branches_are_reached(self):
        # each pair below takes one degenerate branch of the frame builder
        v = np.array([0.6, 0.8, 0.0])
        o = np.array([0.5, 0.5, 0.5])
        coincident = (o, v, o + 0.25 * v, v)
        parallel = (o, v, o + np.array([0.05, 0.0, 0.1]), v)
        rows = [np.array(col) for col in zip(coincident, parallel)]
        frames = _pair_frame(*rows)
        for frame, (b1, v1, b2, v2) in zip(frames, (coincident, parallel)):
            assert abs(1.0 - float(v1 @ v2) ** 2) < 1e-14  # den < 1e-14
            assert same_bits(frame, old_pair_frame(b1, v1, b2, v2))
        assert same_bits(frames[0], old_complete_frame(v))
        assert not same_bits(frames[1], old_complete_frame(v))

    @pytest.mark.parametrize("axis", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8],
                                      [0.48, 0.6, 0.64]])
    def test_complete_frame_equals_np_cross(self, axis):
        axis = np.array(axis)
        assert same_bits(complete_frame(axis), old_complete_frame(axis))
        assert same_bits(complete_frame(np.array([axis, -axis]))[0], old_complete_frame(axis))

    @pytest.mark.parametrize("d", [2, 3])
    def test_vecdot_is_the_per_row_blas_dot(self, d):
        # the row builders take every dot with np.vecdot; it must run the
        # BLAS dot of `a @ b` on each row (an elementwise sum or einsum
        # rounds differently)
        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(2, 20000, d))
        assert same_bits(np.vecdot(a, b), np.array([x @ y for x, y in zip(a, b)]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_norms_are_the_per_vector_norm(self, d):
        # tubes._merge_picks decides each pick with `_norms` of its distances
        # to the representatives; every row must have the bits of the 1-D
        # np.linalg.norm the scalar decision took
        rng = np.random.default_rng(d)
        x = rng.normal(size=(20000, d)) * rng.choice([1e-3, 1.0, 1e3], size=(20000, 1))
        assert same_bits(_norms(x), np.array([np.linalg.norm(row) for row in x]))


class TestLocalCoordinates:
    """`_box_counts` takes each block's local coordinates from one stacked
    product; every candidate's rows must equal its own per-candidate
    product `(bases - center) @ frame.T`, `dirs @ frame.T`."""

    @staticmethod
    def local_coordinates(bases, dirs, centers, frames, monkeypatch, chunk=None):
        """The (B, V) blocks `_box_counts` hands to the chord kernel, joined."""
        seen = []
        chords = concentration._chords_from_local

        def spy(B, V, half, reach=np.inf):
            seen.append((B.copy(), V.copy()))
            return chords(B, V, half, reach)

        monkeypatch.setattr(concentration, "_chords_from_local", spy)
        if chunk is not None:
            monkeypatch.setattr(concentration, "_CHUNK", chunk)
        d = bases.shape[1]
        halves = concentration._box_halves(SCALES[:2], d)
        concentration._box_counts(bases, dirs, 0.5, centers, frames, halves)
        monkeypatch.undo()
        return np.concatenate([B for B, _ in seen]), np.concatenate([V for _, V in seen])

    @staticmethod
    def per_candidate(bases, dirs, centers, frames):
        return (np.array([np.matmul(bases - c, f.T) for c, f in zip(centers, frames)]),
                np.array([np.matmul(dirs, f.T) for f in frames]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_blocks_with_a_remainder(self, d, monkeypatch):
        # 40 members x 2 scales in blocks of 1100 elements: 13 candidates per
        # block, and the last block is shorter
        fam = tube_family(40, d, 13)
        bases, dirs, _ = tube_arrays(fam)
        fewer_candidates(monkeypatch, 5, 5)
        centers, frames = _box_candidates(bases, dirs)
        assert len(centers) % 13 != 0 and len(centers) > 26
        got = self.local_coordinates(bases, dirs, centers, frames, monkeypatch, chunk=1100)
        want = self.per_candidate(bases, dirs, centers, frames)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_broadcast_subdivision_frames(self, monkeypatch):
        # the subdivision children share one frame through a stride-0 view
        bases, dirs = arrays(random_lines(50, 3, 14))
        centers, frames = _box_candidates(bases, dirs)
        kids = centers[7] + np.linspace(-0.1, 0.1, 9)[:, None] * frames[7][0]
        kid_frames = np.broadcast_to(frames[7], (9, 3, 3))
        got = self.local_coordinates(bases, dirs, kids, kid_frames, monkeypatch)
        want = self.per_candidate(bases, dirs, kids, kid_frames)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_member_and_one_candidate(self, d, monkeypatch):
        fam = tube_family(3, d, 15)
        bases, dirs, _ = tube_arrays(fam)
        centers, frames = bases[1:] + 0.01, complete_frame(dirs[::-1][:2])
        for b, v, c, f in ((bases[:1], dirs[:1], centers, frames),
                           (bases, dirs, centers[:1], frames[:1]),
                           (bases[:1], dirs[:1], centers[:1], frames[:1])):
            got = self.local_coordinates(b, v, c, f, monkeypatch)
            want = self.per_candidate(b, v, c, f)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


# ---------------------------------------------------------------------------
# 3D counter and sweep


class TestSweep3D:
    @pytest.mark.parametrize("name", sorted(FAMILIES_3D))
    @pytest.mark.parametrize("subdivide", [True, False])
    def test_sweep_equals_old(self, name, subdivide, monkeypatch):
        bases, dirs = arrays(FAMILIES_3D[name]())
        scales = SCALES if subdivide else SCALES + [(1 / 32, 1 / 8)]
        fewer_candidates(monkeypatch, 12, 6)
        best, cands, _ = concentration._sweep(bases, dirs, 0.5, scales, subdivide)
        old_best, old_cands = old_sweep(bases, dirs, 0.5, scales, 12, 6, subdivide)
        assert best == old_best
        for (c, f), (oc, of) in zip(cands, old_cands):
            assert same_bits(c, oc) and same_bits(f, of)

    def test_m_lines_sweep_boxes_equal_old(self):
        lines = random_lines(80, 3, 5)
        scales = [(u, w) for u, w in dyadic_pairs(1 / 8, 1 / 8)]
        values, boxes = m_lines_sweep(lines, scales)
        old_values, old_cands = old_sweep(*arrays(lines), 0.5, scales)
        assert values == old_values and max(values) > 1
        for box, (c, f) in zip(boxes, old_cands):
            assert same_bits(box.center, c) and same_bits(box.frame, f)

    def test_width_just_above_one_has_a_box(self):
        # widths up to 1 + 1e-9 count; the box of such a scale used to be
        # refused ("half-extents must be sorted ascending")
        lines = random_lines(40, 3, 12)
        scales = [(0.5, 1.0), (0.5, 1.0 + 1e-10), (1.0 + 1e-10, 1.0 + 1e-10)]
        values, boxes = m_lines_sweep(lines, scales)
        assert values == old_sweep(*arrays(lines), 0.5, scales)[0] and values[0] > 1
        assert [b.half_extents.tolist() for b in boxes] == [[0.25, 0.5, 0.5]] * 2 + [[0.5] * 3]

    @pytest.mark.parametrize("seed", [6, 7])
    def test_tube_counts_non_unit_lengths(self, seed):
        fam = tube_family(40, 3, seed)
        centers, dirs, lengths = tube_arrays(fam)
        old, _ = old_sweep(centers, dirs, lengths / 2.0, SCALES, subdivide=False)
        got = tube_box_counts_3d(fam, SCALES)
        assert got == old and max(got) > 1

    @pytest.mark.parametrize("name", ["axis", "degenerate", "vertical", "random60"])
    def test_counter_equals_per_scale_generator(self, name, monkeypatch):
        bases, dirs = arrays(FAMILIES_3D[name]())
        fewer_candidates(monkeypatch, 8, 4)
        centers, frames = _box_candidates(bases, dirs)
        got = box_counts(bases, dirs, None, centers, frames, SCALES)
        want = [list(old_counts_for_candidate(bases, dirs, 0.5, c, f, SCALES))
                for c, f in zip(centers, frames)]
        assert got.tolist() == want


class TestChunks:
    """Block boundaries must not change a count."""

    @pytest.mark.parametrize("chunk", [1, 7, 100, 1000])
    def test_small_chunks(self, chunk, monkeypatch):
        fam = tube_family(30, 3, 8)
        centers, dirs, lengths = tube_arrays(fam)
        fewer_candidates(monkeypatch, 6, 5)
        cc, ff = _box_candidates(centers, dirs)
        want = box_counts(centers, dirs, lengths, cc, ff, SCALES)
        monkeypatch.setattr(concentration, "_CHUNK", chunk)
        assert same_bits(box_counts(centers, dirs, lengths, cc, ff, SCALES), want)
        assert want.tolist() == [list(old_counts_for_candidate(centers, dirs, lengths / 2.0,
                                                               c, f, SCALES))
                                 for c, f in zip(cc, ff)]

    def test_several_chunks_and_a_remainder(self, monkeypatch):
        # 300 members x 6 scales: 9 candidates per block, 101 candidates
        lines = random_lines(300, 3, 9)
        bases, dirs = arrays(lines)
        fewer_candidates(monkeypatch, 6, 6)
        cc, ff = _box_candidates(bases, dirs)
        cc, ff = cc[:101], ff[:101]
        n, S, C = len(lines), len(SCALES), len(cc)
        per_block = concentration._CHUNK // (S * n)
        assert C * S * n > 5 * concentration._CHUNK and C % per_block != 0
        got = box_counts(bases, dirs, None, cc, ff, SCALES)
        assert got.tolist() == [list(old_counts_for_candidate(bases, dirs, 0.5, c, f, SCALES))
                                for c, f in zip(cc, ff)]

    def test_scales_split_when_one_candidate_is_too_big(self, monkeypatch):
        # 3000 members: one candidate's 6 scales exceed a block, so the
        # scales are cut in slices of 5 plus a remainder
        lines = random_lines(3000, 3, 10)
        bases, dirs = arrays(lines)
        assert len(SCALES) * len(lines) > concentration._CHUNK
        fewer_candidates(monkeypatch, 2, 2)
        cc, ff = _box_candidates(bases, dirs)
        cc, ff = cc[:3], ff[:3]
        got = box_counts(bases, dirs, None, cc, ff, SCALES)
        assert got.tolist() == [list(old_counts_for_candidate(bases, dirs, 0.5, c, f, SCALES))
                                for c, f in zip(cc, ff)]

    def test_peak_memory_is_bounded(self, monkeypatch):
        # 2048 lines x 64 scales: an unblocked (scales, members) pass of one
        # candidate alone would hold about ten 1 MB temporaries
        _, lines = generate_bush(1 / 32, 3, 2)
        bases, dirs = arrays(lines)
        assert len(lines) == 2048
        scales = [(k / 64, k / 64) for k in range(1, 65)]
        fewer_candidates(monkeypatch, 2, 2)
        tracemalloc.start()
        try:
            values, _, _ = concentration._sweep(bases, dirs, 0.5, scales, subdivide=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values[-1] > len(lines) // 2
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# 2D counter


def tie_segments():
    out = []
    for k in range(24):
        axis = np.eye(2)[k % 2]
        center = 0.25 + 0.125 * np.array([(k * (a + 1)) % 5 for a in range(2)])
        out.append(Tube2D(center, axis, 1 / 32, [0.25, 0.5, 1.0][k % 3]))
    return out


FAMILIES_2D = {
    "random": lambda: tube_family(70, 2, 11),
    "ties": tie_segments,
    "st-grid": lambda: [Tube2D(ln.base, ln.dir, 1 / 64, 1.0)
                        for ln in generate_st_grid(64)[1]],
    "vertical": lambda: [Tube2D(ln.base, ln.dir, 1 / 64, 1.0)
                         for ln in generate_vertical(1 / 32, 2).lines()],
}

WIDTHS = [1 / 64, 1 / 16, 0.125, 0.3, 0.5, 1.0, 1.0 + 1e-10]


class TestRects2D:
    @pytest.mark.parametrize("name", sorted(FAMILIES_2D))
    @pytest.mark.parametrize("as_lines", [False, True])
    def test_m_tubes_2d_equals_per_width_calls(self, name, as_lines):
        centers, dirs, lengths = tube_arrays(FAMILIES_2D[name]())
        lengths = None if as_lines else lengths
        got = m_tubes_2d(centers, dirs, lengths, WIDTHS)
        assert got == [old_m_tubes_2d(centers, dirs, lengths, w) for w in WIDTHS]
        assert max(got) > 1

    def test_rect_counts_equal_old_in_small_chunks(self, monkeypatch):
        centers, dirs, lengths = tube_arrays(FAMILIES_2D["random"]())
        rc, rd = centers[:9] + 0.01, dirs[::-1][:9]
        monkeypatch.setattr(concentration, "_CHUNK", 50)
        frames = np.array([complete_frame(v) for v in rd])
        got = box_counts(centers, dirs, lengths, rc, frames, [(w, w) for w in WIDTHS])
        assert got.tolist() == [[old_segment_rect_counts(centers, dirs, lengths, c, d, w)
                                 for w in WIDTHS] for c, d in zip(rc, rd)]

    @pytest.mark.parametrize("name", sorted(FAMILIES_2D))
    def test_candidates_equal_old(self, name):
        centers, dirs, _ = tube_arrays(FAMILIES_2D[name]())
        got_centers, got_frames = _box_candidates(centers, dirs)
        old = old_rect_candidates(centers, dirs)
        assert same_bits(got_centers, np.array([c for c, _ in old]))
        assert same_bits(got_frames, np.array([[[-d[1], d[0]], d] for _, d in old]))
        assert same_bits(got_frames, np.array([complete_frame(d) for _, d in old]))

    @pytest.mark.parametrize("name", sorted(FAMILIES_2D))
    @pytest.mark.parametrize("as_lines", [False, True])
    def test_m_lines_sweep_2d_boxes_equal_old(self, name, as_lines):
        # the first old rectangle reaching each width's maximum, at extents
        # clipped to 1; u is not used in 2D
        centers, dirs, lengths = tube_arrays(FAMILIES_2D[name]())
        family = (centers, dirs) if as_lines else (centers, dirs, lengths)
        lengths = None if as_lines else lengths
        values, boxes = m_lines_sweep(family, [(w, w) for w in WIDTHS])
        assert values == [old_m_tubes_2d(centers, dirs, lengths, w) for w in WIDTHS]
        assert m_lines_sweep(family, [(1e-3, w) for w in WIDTHS])[0] == values
        rects = old_rect_candidates(centers, dirs)
        for w, v, box in zip(WIDTHS, values, boxes):
            c, d = next((c, d) for c, d in rects
                        if old_segment_rect_counts(centers, dirs, lengths, c, d, w) == v)
            assert isinstance(box, Box) and same_bits(box.center, c)
            assert same_bits(box.frame, np.array([[-d[1], d[0]], d]))
            assert box.half_extents.tolist() == [min(w / 2.0, 0.5), 0.5]

    def test_empty_family(self):
        assert m_tubes_2d(np.empty((0, 2)), np.empty((0, 2)), None, [0.5, 1.0]) == [0, 0]

    @pytest.mark.parametrize("w", [-0.5, 0.0, np.nan, np.inf, 1.5])
    def test_width_outside_unit_interval_raises(self, w):
        centers, dirs, lengths = tube_arrays(FAMILIES_2D["random"]())
        with pytest.raises(ValueError, match="0 < w <= 1"):
            m_tubes_2d(centers, dirs, lengths, [0.5, w])
        with pytest.raises(ValueError, match="0 < w <= 1"):
            m_lines_2d(generate_st_grid(64)[1], w)
