import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heilbronn import geometry
from heilbronn.geometry import (
    Box,
    DimensionMismatch,
    Line,
    _CellIndex,
    _cell_pairs,
    _sorted_unique,
    canonical_direction,
    covering_number,
    direction_covering_number,
    line_box_chord,
    line_metric,
    point_line_distance,
)

from conftest import line_metric_many, lines_box_chords


def x_axis(dim=3):
    base = np.zeros(dim)
    d = np.zeros(dim)
    d[0] = 1.0
    return Line(base, d)


class TestPointLineDistance:
    def test_orthogonal_offset(self):
        assert point_line_distance([0, 0, 1], x_axis()) == pytest.approx(1.0)

    def test_point_on_line(self):
        assert point_line_distance([0.3, 0, 0], x_axis()) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_parameter_sampling_oracle(self, seed):
        # distance equals the minimum of |p - (base + t dir)| over a dense t-grid
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1, 2, 3)
        line = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
        got = point_line_distance(p, line)
        ts = np.arange(-4.0, 4.0, 1e-4)
        pts = line.base + ts[:, None] * line.dir
        byhand = float(np.linalg.norm(pts - p, axis=1).min())
        assert got == pytest.approx(byhand, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            point_line_distance([0, 0], x_axis(3))

    def test_zero_iff_on_line(self, rng):
        for _ in range(50):
            line = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
            t = rng.uniform(-1, 1)
            assert point_line_distance(line.point_at(t), line) < 1e-9


class TestLineMetric:
    def test_identity(self):
        l1 = x_axis()
        assert line_metric(l1, l1) == 0.0

    def test_parallel_offset(self):
        l1 = x_axis()
        l2 = Line([0, 0.25, 0], [1, 0, 0])
        assert line_metric(l1, l2) == pytest.approx(0.25)

    def test_sign_flip_invariance(self):
        l1 = Line([0, 0, 0], [1, 1, 0])
        l2 = Line([0, 0, 0.5], [-1, -1, 0])
        # canonicalization makes these directions equal
        assert line_metric(l1, l2) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_skew_grid_oracle(self, seed):
        # coarse (t, t') grid refined around its argmin
        rng = np.random.default_rng(seed)
        l1 = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
        l2 = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
        got = line_metric(l1, l2)

        def grid_min(c1, c2, half, n):
            ts1 = np.linspace(c1 - half, c1 + half, n)
            ts2 = np.linspace(c2 - half, c2 + half, n)
            P1 = l1.base + ts1[:, None] * l1.dir
            P2 = l2.base + ts2[:, None] * l2.dir
            dmat = np.linalg.norm(P1[:, None, :] - P2[None, :, :], axis=2)
            k = np.unravel_index(np.argmin(dmat), dmat.shape)
            return float(dmat[k]), float(ts1[k[0]]), float(ts2[k[1]])

        _, t1, t2 = grid_min(0.0, 0.0, 60.0, 401)
        val, t1, t2 = grid_min(t1, t2, 0.4, 401)
        val, _, _ = grid_min(t1, t2, 0.004, 401)
        ang = min(np.linalg.norm(l1.dir - l2.dir), np.linalg.norm(l1.dir + l2.dir))
        assert got == pytest.approx(ang + val, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetry_property(self, seed):
        rng = np.random.default_rng(seed)
        l1 = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
        l2 = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
        assert line_metric(l1, l2) == pytest.approx(line_metric(l2, l1), rel=1e-9)

    def test_approximate_triangle_inequality(self, rng):
        # sum of a metric and a min-distance: triangle holds within factor 2
        lines = [Line(rng.uniform(0, 1, 3), rng.normal(size=3)) for _ in range(30)]
        for _ in range(1000):
            a, b, c = rng.integers(0, 30, 3)
            lhs = line_metric(lines[a], lines[c])
            rhs = line_metric(lines[a], lines[b]) + line_metric(lines[b], lines[c])
            assert lhs <= 2 * rhs + 1e-9

    def test_vectorized_matches_scalar(self, rng):
        lines = [Line(rng.uniform(0, 1, 3), rng.normal(size=3)) for _ in range(12)]
        bases = np.array([l.base for l in lines])
        dirs = np.array([l.dir for l in lines])
        got = line_metric_many(lines[0], bases, dirs)
        want = [line_metric(lines[0], l) for l in lines]
        assert np.allclose(got, want, atol=1e-12)


class TestLineBoxChord:
    def unit_box(self):
        return Box([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], np.eye(3))

    def test_axis_traversal(self):
        box = Box([0.5, 0.5, 0.5], [0.05, 0.05, 0.5], np.eye(3))
        line = Line([0.5, 0.5, 0.0], [0, 0, 1])
        assert line_box_chord(line, box) == pytest.approx(1.0)

    def test_disjoint(self):
        box = Box([0.5, 0.5, 0.5], [0.1, 0.1, 0.1], np.eye(3))
        line = Line([5.0, 5.0, 0.0], [0, 0, 1])
        assert line_box_chord(line, box) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_monte_carlo_oracle(self, seed):
        rng = np.random.default_rng(seed)
        line = Line(rng.uniform(0.2, 0.8, 3), rng.normal(size=3))
        half = np.sort(rng.uniform(0.05, 0.5, 3))
        box = Box(rng.uniform(0.3, 0.7, 3), half, np.eye(3))
        got = line_box_chord(line, box)
        ts = np.linspace(-3.5, 3.5, 100_000)
        pts = line.base + ts[:, None] * line.dir
        local = np.abs(pts - box.center)
        inside = np.all(local <= half, axis=1)
        mc = inside.mean() * 7.0
        assert got == pytest.approx(mc, abs=1e-2)

    def test_monotone_under_dilation(self, rng):
        for _ in range(40):
            line = Line(rng.uniform(0, 1, 3), rng.normal(size=3))
            half = np.sort(rng.uniform(0.02, 0.5, 3))
            center = rng.uniform(0, 1, 3)
            box, doubled = Box(center, half, np.eye(3)), Box(center, 2.0 * half, np.eye(3))
            assert line_box_chord(line, doubled) >= line_box_chord(line, box) - 1e-12

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box([0, 0, 0], [0.0, 0.1, 0.5], np.eye(3))

    def test_vectorized_matches_scalar(self, rng):
        box = Box([0.4, 0.5, 0.6], [0.1, 0.2, 0.5], np.eye(3))
        lines = [Line(rng.uniform(0, 1, 3), rng.normal(size=3)) for _ in range(20)]
        bases = np.array([l.base for l in lines])
        dirs = np.array([l.dir for l in lines])
        got = lines_box_chords(bases, dirs, box)
        want = [line_box_chord(l, box) for l in lines]
        assert np.allclose(got, want, atol=1e-10)


class TestCoveringNumber:
    def test_single_item(self):
        assert covering_number(np.array([[0.3, 0.4]]), 0.2) == 1

    def test_separated_points_all_kept(self, rng):
        k = 9
        pts = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
        assert covering_number(pts, 0.4) == k  # pairwise distance 1 > 2*0.4

    def test_exact_cover_oracle_small(self, rng):
        # greedy count sandwiched by the optimal data-centered ball cover
        import itertools
        pts = rng.uniform(0, 1, (18, 2))
        w = 0.3
        greedy = covering_number(pts, w)
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        best = None
        for k in range(1, greedy + 1):
            for centers in itertools.combinations(range(len(pts)), k):
                if np.all(dist[:, centers].min(axis=1) <= w + 1e-12):
                    best = k
                    break
            if best is not None:
                break
        assert best is not None
        # the greedy w-separated set covers with w-balls, so it upper bounds
        # the optimum; a 2w-separated subset would lower bound it
        assert best <= greedy
        assert covering_number(pts, 2 * w) <= best

    def test_antitone_in_w(self, rng):
        pts = rng.uniform(0, 1, (100, 2))
        values = [covering_number(pts, w) for w in (0.05, 0.1, 0.2, 0.4)]
        assert values == sorted(values, reverse=True)

    def test_empty(self):
        assert covering_number(np.empty((0, 2)), 0.5) == 0

    def test_direction_covering_sign_invariance(self):
        dirs = np.array([[1.0, 0, 0], [-1.0, 1e-9, 0]])
        dirs[1] /= np.linalg.norm(dirs[1])
        assert direction_covering_number(dirs, 0.1) == 1


@pytest.mark.parametrize("keys", [
    np.array([], dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.array([3, -1, 3, 3, -1, 0, 2 ** 62, -2 ** 62], dtype=np.int64),
    np.random.default_rng(0).integers(-50, 50, 5000),
])
def test_sorted_unique_matches_np_unique(keys):
    got = _sorted_unique(keys)
    assert got.dtype == keys.dtype and np.array_equal(got, np.unique(keys))


def cell_index_sets():
    """Inputs for _CellIndex.cubes against brute force, by name: (P, side, origin)."""
    rng = np.random.default_rng(17)
    dup = rng.uniform(0, 1, (40, 3))
    return {
        "uniform2d": (rng.uniform(0, 1, (300, 2)), 0.07, 0.0),
        "uniform3d": (rng.uniform(0, 1, (300, 3)), 0.15, 0.0),
        "negative3d": (rng.uniform(-2, 1, (200, 3)), 0.3, 0.0),
        "far2d": (np.vstack([1e9 * rng.uniform(-1, 1, (60, 2)), rng.uniform(0, 0.5, (60, 2))]),
                  0.1, 0.0),
        "far3d": (np.vstack([1e9 * rng.uniform(-1, 1, (60, 3)), rng.uniform(0, 0.5, (60, 3))]),
                  0.1, 0.0),
        "duplicates3d": (np.vstack([dup, dup[::2], dup[:5]]), 0.2, 0.0),
        "single2d": (np.array([[0.3, -0.7]]), 0.1, 0.0),
        "origin3d": (rng.uniform(0, 1, (150, 3)), 0.11, np.array([0.05, -0.3, 0.5])),
        "origin2d": (rng.uniform(-1, 1, (150, 2)), 0.2, -0.13),
    }


CELL_INDEX_SETS = cell_index_sets()


class TestCellIndex:
    @pytest.mark.parametrize("r", [1, 2, 3, "all"])
    @pytest.mark.parametrize("name", sorted(CELL_INDEX_SETS))
    def test_cubes_equal_brute_force(self, name, r):
        # every row whose cell lies within Chebyshev distance r, as index sets
        P, side, origin = CELL_INDEX_SETS[name]
        index = _CellIndex(P, side, origin)
        cells = np.floor((P - origin) / side).astype(np.int64)
        assert np.array_equal(index.cells, cells)
        if r == "all":
            r = int(np.ptp(cells, axis=0).max())
        q = cells[np.sort(index.order[index.head[:-1]])]
        cube, counts = index.cubes(q, r)
        assert counts.sum() == cube.size
        for c, got in zip(q, np.split(cube, np.cumsum(counts)[:-1])):
            assert np.all(np.diff(got) > 0)
            pos = index.rows(got)
            assert np.all(np.diff(pos) > 0)
            want = np.flatnonzero(np.abs(cells - c).max(axis=1) <= r)
            assert np.array_equal(np.sort(index.order[pos]), want)

    @pytest.mark.parametrize("name", sorted(CELL_INDEX_SETS))
    def test_neighbours_equal_brute_force(self, name):
        # the occupied cells within Chebyshev distance 1 of each occupied cell
        P, side, origin = CELL_INDEX_SETS[name]
        index = _CellIndex(P, side, origin)
        occupied = index.cells[index.order[index.head[:-1]]]
        at, nbr = index.neighbours()
        assert at.size == occupied.shape[0] + 1 and at[-1] == nbr.size
        for k, c in enumerate(occupied):
            want = np.flatnonzero(np.abs(occupied - c).max(axis=1) <= 1)
            assert np.array_equal(nbr[at[k]:at[k + 1]], want)

    @pytest.mark.parametrize("chunk", [1, 50, None])
    @pytest.mark.parametrize("registry", [False, True])
    @pytest.mark.parametrize("name", sorted(CELL_INDEX_SETS))
    def test_cell_pairs_equal_brute_force(self, name, registry, chunk, monkeypatch):
        # every query with every slot of its neighbour cells, in query order,
        # cell by cell, in blocks of at most _CHUNK pairs or one query alone
        if chunk is not None:
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
        P, side, origin = CELL_INDEX_SETS[name]
        index = _CellIndex(P, side, origin)
        occupied = index.cells[index.order[index.head[:-1]]]
        at, nbr = index.neighbours()
        start, count = index.head[:-1], np.diff(index.head)
        q = index.cell[index.order]
        if registry:  # part-filled cells, some empty; queries in any order, repeated
            rng = np.random.default_rng(occupied.shape[0])
            count = rng.integers(0, count + 1)
            count[::3] = 0
            q = rng.integers(0, occupied.shape[0], 2 * occupied.shape[0])
        queries, slots = [], []
        for i, c in enumerate(q):
            for d in np.flatnonzero(np.abs(occupied - occupied[c]).max(axis=1) <= 1):
                queries += [i] * int(count[d])
                slots += range(start[d], start[d] + count[d])
        blocks = list(_cell_pairs(q, at, nbr, start, count))
        got = [np.concatenate(b) for b in zip(*blocks)]
        assert np.array_equal(got[0], queries) and np.array_equal(got[1], slots)
        seen = [np.unique(b[0]) for b in blocks if b[0].size]
        for b, u in zip((b for b in blocks if b[0].size), seen):
            assert b[0].size <= geometry._CHUNK or u.size == 1
        assert sum(u.size for u in seen) == np.unique(queries).size  # no query split

    @pytest.mark.parametrize("name", sorted(CELL_INDEX_SETS))
    def test_sorted_order_heads_and_cells(self, name):
        P, side, origin = CELL_INDEX_SETS[name]
        index = _CellIndex(P, side, origin)
        cells = index.cells
        assert np.array_equal(index.order, np.lexsort(cells.T[::-1]))
        assert np.all(np.diff(index.keys) > 0) and np.all(np.diff(index.head) > 0)
        # a head starts each run of equal cells; every row knows its run
        assert index.head[0] == 0 and index.head[-1] == P.shape[0]
        assert np.array_equal(index.cell[index.order[index.head[:-1]]], np.arange(index.keys.size))
        same = np.all(cells[:, None] == cells[index.order[index.head[:-1]]][None], axis=2)
        assert np.array_equal(same.argmax(axis=1), index.cell)

    def test_rejects_keys_beyond_int64(self):
        # 2^21 distinct coordinates on each of 3 axes: 2^63 keys
        k = np.arange(2**21, dtype=float)
        with pytest.raises(ValueError, match="int64"):
            _CellIndex(np.column_stack([k, k, k]), 1.0)
        with pytest.raises(ValueError, match="int64"):
            _CellIndex(np.array([[0.0, 0.0], [1.0, 0.0]]), 1e-300)


class TestTypes:
    def test_line_canonical_sign(self):
        l = Line([0, 0, 0], [-1, 0, 0])
        assert l.dir[0] == 1.0

    def test_box_frame_orthonormal(self):
        with pytest.raises(ValueError):
            Box([0, 0, 0], [0.1, 0.2, 0.3], np.ones((3, 3)))


def old_line_fields(base, dir):
    """Line's base and dir as the numpy-reduction formulas computed them."""
    b = np.array(base, dtype=float)
    v = np.array(dir, dtype=float)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-13:
        v = v / n
    for c in v:
        if abs(c) > 1e-14:
            if c < 0:
                v = -v
            break
    return b, v


def line_inputs():
    rng = np.random.default_rng(12)
    for dim in (2, 3):
        for _ in range(200):
            yield rng.uniform(-2, 2, dim), rng.normal(size=dim)
        for _ in range(100):
            # near-unit: norms just inside and just outside 1 +- 1e-13
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            yield rng.uniform(0, 1, dim), u * (1.0 + rng.uniform(-3e-13, 3e-13))
        for _ in range(100):
            u = rng.normal(size=dim)
            u[0] = -abs(u[0])
            yield rng.uniform(0, 1, dim), u
        for lead in (1e-15, -1e-15):
            for _ in range(50):
                u = rng.normal(size=dim)
                u[0] = lead
                yield rng.uniform(0, 1, dim), u


def test_line_fields_equal_old_formulas():
    for base, dir in line_inputs():
        line = Line(base, dir)
        b, v = old_line_fields(base, dir)
        assert np.array_equal(line.base, b) and np.array_equal(line.dir, v)


@pytest.mark.parametrize("dir, unit", [([1e200, 1e200], [1.0, 1.0]),
                                       ([1e-200, 1e-200], [1.0, 1.0]),
                                       ([1.7e308, -1.7e308, 0.0], [1.0, -1.0, 0.0]),
                                       ([-1e-170, -3e-170], [1.0, 3.0]),
                                       ([5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                       ([1e-300, 2e-300, -2e-300], [1.0, 2.0, -2.0])])
def test_line_accepts_directions_whose_square_leaves_the_float_range(dir, unit):
    # the largest coordinate scales the direction only where the squared
    # norm overflows or underflows, which used to raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Line(np.zeros(len(dir)), dir).dir
    assert np.allclose(got, canonical_direction(unit), rtol=0, atol=4e-16)


def test_directions_in_range_keep_their_bits():
    # the same vectors, scaled into the range where the squared norm is
    # finite and nonzero, take the old formula (beyond 2^500 after a check)
    for s in (1e150, 1e-150, 2.0**-400, 2.0**400, 2.0**505, 2.0**-505):
        for v in ([1.0, 1.0], [1.0, 3.0], [0.3, -0.4, 0.5]):
            x = s * np.array(v)
            assert np.array_equal(canonical_direction(x), old_line_fields([0, 0, 0], x)[1])


@pytest.mark.parametrize("dir", [[0.0, 0.0], [np.inf, 0.0], [1e300, -np.inf], [np.nan, 1e300],
                                 [1e300, np.nan], [np.nan, 1.0], [0.0, -0.0, 0.0]])
def test_zero_and_non_finite_directions_raise(dir):
    with pytest.raises(ValueError, match="nonzero finite"):
        canonical_direction(dir)


@pytest.mark.parametrize("base, dir", [([0.0, np.nan], [1.0, 0.0]),
                                       ([0.0, 0.0, np.inf], [1.0, 0.0, 0.0]),
                                       ([0.0, 0.0], [np.nan, 1.0]),
                                       ([0.0, 0.0], [0.0, 0.0]),
                                       ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
                                       ([0.0, 0.0], 1.0)])
def test_line_rejects_bad_input(base, dir):
    with pytest.raises(ValueError):
        Line(base, dir)
