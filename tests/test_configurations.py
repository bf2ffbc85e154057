import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heilbronn import geometry
from heilbronn.configurations import (
    EmptyConfigurationError,
    PointLineConfiguration,
    PointLinePair,
    UndefinedInputError,
    _nearest_point_line,
    generate_bush,
    generate_erdos_parabola,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
    make_config,
    min_config_distance,
    rescale_config,
    slab_restriction,
)
from heilbronn.geometry import Box, Line, _points_lines_block, point_line_distance
from heilbronn.triangles import min_triangle_brute

from conftest import random_config


def naive_min_distance(config):
    best = np.inf
    for i, pi in enumerate(config.pairs):
        for j, pj in enumerate(config.pairs):
            if i == j:
                continue
            best = min(best, point_line_distance(pi.point, pj.line))
    return best


class TestMinConfigDistance:
    def test_two_parallel_verticals(self):
        lines = [Line([0.0, 0.0], [0, 1]), Line([0.3, 0.0], [0, 1])]
        X = make_config([[0.0, 0.0], [0.3, 0.0]], lines)
        assert min_config_distance(X) == pytest.approx(0.3)

    def test_shared_line_gives_zero(self):
        l = Line([0.0, 0.0], [1, 1])
        X = make_config([[0.0, 0.0], [0.5, 0.5]], [l, l])
        assert min_config_distance(X) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        X = generate_vertical(1 / 8, 2)
        assert min_config_distance(X) == pytest.approx(naive_min_distance(X))
        assert min_config_distance(X) >= 1 / 8
        for seed in range(3):
            X = random_config(25, 3, seed)
            assert min_config_distance(X) == pytest.approx(naive_min_distance(X))

    def test_needs_two_pairs(self):
        X = make_config([[0.5, 0.5]], [Line([0.5, 0.5], [1, 0])])
        with pytest.raises(UndefinedInputError):
            min_config_distance(X)


def per_line_nearest(P, bases, dirs):
    """The one-line-at-a-time loop that `_nearest_point_line` ran before its
    distances came in blocks: lines in order, the first argmin per line,
    replaced only by a strictly smaller value."""
    best, witness = np.inf, (0, 1)
    for j in range(bases.shape[0]):
        d = _points_lines_block(P, bases[j:j + 1], dirs[j:j + 1])[0]
        d[j] = np.inf
        i = int(np.argmin(d))
        if d[i] < best:
            best, witness = float(d[i]), (i, j)
    return best, witness


def _arrays(X):
    return X.points(), X.line_bases(), X.directions()


class TestNearestPointLineOracle:
    """`_nearest_point_line` equals the per-line loop in value (hex) and witness."""

    @staticmethod
    def check(P, bases, dirs):
        best, witness = _nearest_point_line(P, bases, dirs)
        want = per_line_nearest(P, bases, dirs)
        assert (best.hex(), witness) == (want[0].hex(), want[1])
        return best, witness

    @pytest.mark.parametrize("chunk", [64, None])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 17, 150])
    def test_random(self, n, dim, chunk, monkeypatch):
        # _CHUNK 64: several lines a block, and one line a block at n = 150
        if chunk is not None:
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
        for seed in range(3):
            self.check(*_arrays(random_config(n, dim, seed)))

    @pytest.mark.parametrize("chunk", [64, None])
    @pytest.mark.parametrize("dim,delta", [(2, 1 / 64), (3, 1 / 16)])
    def test_vertical_grid_ties(self, dim, delta, chunk, monkeypatch):
        # every pair has neighbours at exactly 2 delta: the first line and
        # its first argmin decide the witness
        if chunk is not None:
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
        best, witness = self.check(*_arrays(generate_vertical(delta, dim)))
        assert best == 2 * delta and witness == (1, 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_duplicated_lines(self, dim, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK", 64)
        P, bases, dirs = _arrays(random_config(40, dim, 5))
        for a, b in ((3, 30), (7, 12), (7, 25)):  # lines 30, 12 and 25 repeat 3 and 7
            P[b], bases[b], dirs[b] = P[a], bases[a], dirs[a]
        best, witness = self.check(P, bases, dirs)
        assert best == 0.0

    @pytest.mark.parametrize("chunk", [64, None])
    def test_a_nan_distance_never_wins(self, chunk, monkeypatch):
        # point 0 lies so far out that its distance to line 5 overflows to
        # nan (t = inf, inf * 0 in the third plane); point 9 lies on line 5,
        # which would win with the smallest distance were the nan skipped
        if chunk is not None:
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
        P, bases, dirs = _arrays(random_config(30, 3, 2))
        dirs[5] = [2**-0.5, 2**-0.5, 0.0]
        P[0] = 1.7e308
        P[9] = bases[5] + 0.25 * dirs[5]
        with np.errstate(all="ignore"):
            assert np.isnan(_points_lines_block(P, bases[5:6], dirs[5:6])[0, 0])
            best, witness = self.check(P, bases, dirs)
        assert witness[1] != 5 and best > 0


class TestVertical:
    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_count_and_distance(self, k, dim):
        delta = 2.0**-k
        X = generate_vertical(delta, dim)
        assert len(X) == int(np.floor(1 / (2 * delta))) ** (dim - 1)
        if len(X) >= 2:
            assert min_config_distance(X) >= delta

    def test_quarter_2d(self):
        X = generate_vertical(0.25, 2)
        assert len(X) == 2
        assert min_config_distance(X) == pytest.approx(0.5)

    def test_eighth_3d_count(self):
        assert len(generate_vertical(1 / 8, 3)) == 16

    def test_coarse_delta_rejected(self):
        with pytest.raises(EmptyConfigurationError):
            generate_vertical(0.6, 2)

    def test_validates(self):
        assert generate_vertical(1 / 16, 3).validate() == []


class TestBush:
    def test_2d_count(self):
        pts, lines = generate_bush(0.1, 2, 1, seed=0)
        expect = np.pi / 0.1
        assert expect - 1 <= len(lines) <= expect + 1

    def test_3d_count_near_inverse_square(self):
        pts, lines = generate_bush(0.1, 3, 1, seed=0)
        assert 50 <= len(lines) <= 200  # within factor 2 of delta^-2

    def test_directions_separated(self):
        _, lines = generate_bush(0.05, 3, 1, seed=1)
        dirs = np.array([l.dir for l in lines])
        sub = dirs[:: max(1, len(dirs) // 40)]
        for i in range(len(sub)):
            d = np.minimum(np.linalg.norm(dirs - sub[i], axis=1),
                           np.linalg.norm(dirs + sub[i], axis=1))
            d[np.argmin(d)] = np.inf  # self
            assert d.min() >= 0.05

    def test_all_lines_through_centers(self):
        pts, lines = generate_bush(0.1, 3, 2, seed=3)
        per = len(lines) // 2
        for k, line in enumerate(lines):
            center = pts[k // per]
            assert point_line_distance(center, line) < 1e-9


class TestPlaneExample:
    def test_planarity(self):
        pts, lines = generate_plane_example(0.1)
        assert np.allclose(pts[:, 2], 0.5)
        assert np.allclose([l.dir[2] for l in lines], 0.0)

    def test_direction_spread_is_one_circle(self):
        _, lines = generate_plane_example(0.1)
        normals = [np.cross(l.dir, [0, 0, 1.0]) for l in lines]
        assert all(np.linalg.norm(n) > 0 for n in normals)

    def test_counts(self):
        pts, lines = generate_plane_example(1 / 16)
        assert len(pts) == 8**2
        assert len(lines) == 8**2


class TestStGrid:
    def test_exact_incidences(self):
        # integer geometry: every line y = ax + b hits exactly n grid points
        N = 64
        pts, lines = generate_st_grid(N)
        n = round(N ** (1 / 3))
        grid = {(round(p[0] * n), round(p[1] * 2 * n**2)) for p in pts}
        incid = 0
        for a in range(1, n + 1):
            for b in range(1, n**2 + 1):
                incid += sum((x, a * x + b) in grid for x in range(1, n + 1))
        assert incid == n**4
        assert len(lines) == n**3

    def test_smoke_small(self):
        pts, lines = generate_st_grid(8)
        assert len(pts) > 0 and len(lines) > 0


class TestParabola:
    def test_no_collinear_triple_small(self):
        P = generate_erdos_parabola(5)
        assert min_triangle_brute(P).area > 0

    def test_scaling_constant(self):
        P = generate_erdos_parabola(50)
        n = P.shape[0]
        area = min_triangle_brute(P).area
        assert 0.1 <= area * n**2 <= 10

    def test_minimum_size(self):
        P = generate_erdos_parabola(3)
        assert P.shape[0] >= 3
        assert min_triangle_brute(P).area > 0


class TestRescale:
    def test_identity_at_scale_one(self):
        X = generate_vertical(1 / 8, 2)
        Y = rescale_config(X, 1.0, X.pairs[0])
        assert len(Y) == len(X)
        assert np.allclose(Y.points(), X.points())

    def test_distance_doubles(self):
        X = generate_vertical(1 / 8, 3)
        Y = rescale_config(X, 0.5, X.pairs[0])
        assert min_config_distance(Y) >= 2 * min_config_distance(X) - 1e-12

    def test_composition(self):
        X = random_config(200, 3, 7)
        a = X.pairs[0]
        one = rescale_config(rescale_config(X, 0.5, a),
                             0.5, rescale_config(X, 0.5, a).pairs[0])
        # composing two half-scale rescalings anchored consistently equals
        # the quarter-scale rescaling when the anchor cube chain nests
        both = rescale_config(X, 0.25, a)
        pts_one = {tuple(np.round(p, 9)) for p in one.points()}
        pts_both = {tuple(np.round(p, 9)) for p in both.points()}
        assert pts_one == pts_both

    def test_anchor_must_be_member(self):
        X = generate_vertical(1 / 8, 2)
        other = PointLinePair([0.9, 0.9], Line([0.9, 0.9], [1, 0]))
        with pytest.raises(ValueError):
            rescale_config(X, 0.5, other)


class TestSlabRestriction:
    def test_points_in_unit_square(self):
        X = random_config(150, 3, 11)
        box = Box([0.5, 0.5, 0.5], [0.05, 0.3, 0.5], np.eye(3))
        Y = slab_restriction(X, box)
        for pair in Y.pairs:
            assert np.all(pair.point >= -1e-9) and np.all(pair.point <= 1 + 1e-9)

    def test_degenerate_full_cube_collapse(self):
        X = generate_vertical(1 / 8, 3)
        box = Box([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], np.eye(3)[[1, 2, 0]])
        Y = slab_restriction(X, box)
        assert Y.dim == 2

    def test_empty_restriction_is_valid(self):
        X = generate_vertical(1 / 8, 3)
        box = Box([0.5, 0.5, 0.5], [0.01, 0.02, 0.5],
                  np.eye(3)[[2, 1, 0]])  # thin slab orthogonal to the lines
        Y = slab_restriction(X, box)
        assert isinstance(Y, PointLineConfiguration)

    def test_vertical_separation_scaling(self):
        # slab orthogonal to the plane of points: output separation ~ u/w
        X = generate_vertical(1 / 16, 3)
        u, w = 1 / 16, 1 / 2
        box = Box([0.25, 0.25, 0.5], np.array([u, w, 1.0]) / 2, np.eye(3))
        Y = slab_restriction(X, box)
        if len(Y) >= 2:
            assert min_config_distance(Y) >= 0.25 * u / w


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_generators_validate(self, seed):
        X = random_config(20, 3, seed)
        assert X.validate() == []

    def test_trivial_packing_bound(self):
        # |X| <= 10 d(X)^-dim across constructions
        for delta in (1 / 4, 1 / 8, 1 / 16):
            for dim in (2, 3):
                X = generate_vertical(delta, dim)
                if len(X) < 2:
                    continue
                d = min_config_distance(X)
                assert len(X) <= 10 * d**-dim

    def test_pair_snap(self):
        # a point slightly off its line is re-snapped at construction
        line = Line([0.0, 0.0], [1.0, 0.0])
        pair = PointLinePair([0.5, 1e-7], line)
        assert point_line_distance(pair.point, line) < 1e-12
