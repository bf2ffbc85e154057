import numpy as np
import pytest
from scipy.integrate import simpson

from heilbronn import incidence
from heilbronn.concentration import _CHUNK, HypothesisViolation, m_lines
from heilbronn.configurations import (
    generate_bush,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
    min_config_distance,
)
from heilbronn.geometry import DimensionMismatch, Line, _points_lines_block
from heilbronn.incidence import (
    double_count_check,
    dyadic_scan,
    incidence_count,
    incidence_many,
    initial_estimate_check,
    normalized_incidence,
    normalized_incidence_many,
    rhs_basic,
    rhs_direction_capped,
    rhs_refined,
    rhs_wellspaced,
)
from heilbronn.kernels import bump_profile

from conftest import eta_table, random_lines, separated_config


class TestIncidenceCount:
    def test_single_incident_pair_vs_dense_quadrature(self):
        # one point on one line: count equals w^(d-1) times the kernel line
        # integral, cross-checked by Simpson at step w/256
        w = 0.05
        prof = bump_profile(3)
        line = Line([0.5, 0.5, 0.0], [0, 0, 1])
        P = np.array([[0.5, 0.5, 0.4]])
        got = incidence_count(w, P, [line], 3)
        sig = np.arange(-3 * w, 3 * w, w / 256)
        vals = eta_table(prof, np.abs(sig) / w) / w**3
        want = w**2 * simpson(vals, x=sig)
        assert got == pytest.approx(want, rel=1e-3)

    def test_separated_pair_vanishes(self):
        w = 0.05
        line = Line([0.5, 0.5, 0.0], [0, 0, 1])
        P = np.array([[0.8, 0.5, 0.4]])  # distance 0.3 > 3w
        assert incidence_count(w, P, [line], 3) == 0.0

    def test_full_separation_gives_exact_zero(self):
        # min pair distance above 6w forces an exactly zero count
        lines = [Line([0.1, 0.1, 0.0], [0, 0, 1])]
        P = np.array([[0.9, 0.9, 0.5], [0.8, 0.1, 0.2]])
        w = 0.05
        assert incidence_count(w, P, lines, 3) == 0.0

    def test_random_normalization_3d(self, rng):
        P = rng.uniform(0, 1, (1200, 3))
        lines = random_lines(1200, 3, seed=2)
        b = normalized_incidence(0.05, P, lines, 3)
        assert 0.25 <= b <= 4.0

    def test_random_normalization_2d(self, rng):
        P = rng.uniform(0, 1, (800, 2))
        lines = random_lines(800, 2, seed=3)
        b = normalized_incidence(0.05, P, lines, 2)
        assert 0.25 <= b <= 4.0

    def test_incident_pairs_only_at_small_scale(self):
        # at w = delta/6 only the incident pairs contribute
        X = generate_vertical(1 / 8, 3)
        prof = bump_profile(3)
        got = incidence_count(min_config_distance(X) / 6, X.points(), X.lines(), 3)
        assert got == pytest.approx(len(X) * float(prof.line_values[0]), rel=1e-9)


def per_line_incidence(ws, P, lines, dim):
    """The one-line-at-a-time incidence loop that the pair blocks replaced."""
    prof = bump_profile(dim)
    P = np.asarray(P, dtype=float)
    totals = np.zeros(len(ws))
    for line in lines:
        d = _points_lines_block(P, line.base[None], line.dir[None])[0]
        d = d[d < prof.eta_support * max(ws)]
        if d.size == 0:
            continue
        for k, w in enumerate(ws):
            totals[k] += float(np.sum(prof.line_profile(d / w)))
    return [float(t) for t in totals]


def _random_family(n, n_lines, dim, seed):
    return np.random.default_rng(seed).uniform(0, 1, (n, dim)), random_lines(n_lines, dim, seed)


class TestIncidenceBlocks:
    """incidence_many's pair blocks against the per-line loop they replaced.

    The sums run in another order, so B may move in its last bits; the
    distances themselves come from the same per-line products.
    """

    def _check(self, P, lines, dim, ws):
        got = incidence_many(ws, P, lines, dim)
        want = per_line_incidence(ws, P, lines, dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        return got

    @pytest.mark.parametrize("ws", [[1 / 16], [1 / 16, 1 / 8]])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_vertical(self, dim, ws):
        X = generate_vertical(1 / 16, dim)
        self._check(X.points(), X.lines(), dim, ws)

    @pytest.mark.parametrize("ws", [[1 / 64], [1 / 64, 1 / 32]])
    def test_bush_two_points_8192_lines(self, ws):
        P, lines = generate_bush(1 / 64, 3, 2, seed=1)
        assert (len(P), len(lines)) == (2, 8192)
        self._check(P, lines, 3, ws)

    @pytest.mark.parametrize("ws", [[1 / 32], [1 / 32, 1 / 16]])
    def test_plane(self, ws):
        P, lines = generate_plane_example(1 / 32)
        self._check(P, lines, 3, ws)

    @pytest.mark.parametrize("ws", [[1 / 32], [1 / 32, 1 / 16]])
    def test_st_grid_2d(self, ws):
        P, lines = generate_st_grid(128)
        self._check(P, lines, 2, ws)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random(self, dim):
        P, lines = _random_family(300, 200, dim, seed=40 + dim)
        self._check(P, lines, dim, [0.05, 0.1])

    @pytest.mark.parametrize("n_lines", [_CHUNK // 128 - 1, _CHUNK // 128, _CHUNK // 128 + 1])
    def test_block_boundary(self, n_lines):
        # 128 points: L * n just below, at and above one block of pairs
        P, lines = _random_family(128, n_lines, 3, seed=n_lines)
        self._check(P, lines, 3, [0.1, 0.2])

    def test_more_points_than_a_block(self):
        P, lines = _random_family(_CHUNK + 3, 2, 3, seed=5)
        self._check(P, lines, 3, [0.1])

    @pytest.mark.parametrize("n, n_lines", [(1, 50), (50, 1), (1, 1)])
    def test_single_point_or_line(self, n, n_lines):
        P, lines = _random_family(n, n_lines - 1, 3, seed=n + 7 * n_lines)
        lines = lines + [Line(P[0], [0.3, -0.2, 1.0])]  # at least one incident pair
        assert (len(P), len(lines)) == (n, n_lines)
        self._check(P, lines, 3, [0.05, 0.1])

    def test_no_point_in_support(self):
        P = np.array([[0.9, 0.9, 0.5], [0.8, 0.1, 0.2]])
        lines = [Line([0.1, 0.1, 0.0], [0, 0, 1]), Line([0.75, 0.9, 0.0], [0, 0, 1])]
        # no point near the first line; one point 0.15 from the second, inside
        # the support at w = 0.2 only
        assert self._check(P, lines, 3, [0.05]) == [0.0]
        fine, coarse = self._check(P, lines, 3, [0.05, 0.2])
        assert fine == 0.0 and coarse > 0.0

    def test_dimension_mismatch_names_both(self):
        P = np.random.default_rng(0).uniform(0, 1, (40, 2))
        with pytest.raises(DimensionMismatch, match="2D.*3D"):
            incidence_many([0.1], P, random_lines(5, 3, seed=0), 3)


class TestDimensionCheck:
    """A `dim` that disagrees with the points and lines would select the other
    kernel table and exponents: every entry point refuses it."""

    CALLS = [
        pytest.param(lambda P, L, d: incidence_many([0.1], P, L, d), id="incidence_many"),
        pytest.param(lambda P, L, d: incidence_count(0.1, P, L, d), id="incidence_count"),
        pytest.param(lambda P, L, d: normalized_incidence(0.1, P, L, d),
                     id="normalized_incidence"),
        pytest.param(lambda P, L, d: normalized_incidence_many([0.1, 0.2], P, L, d),
                     id="normalized_incidence_many"),
        pytest.param(lambda P, L, d: rhs_basic(0.1, P, L, d), id="rhs_basic"),
        pytest.param(lambda P, L, d: dyadic_scan(P, L, 0.05, 0.2, d), id="dyadic_scan"),
    ]

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("dim,wrong", [(3, 2), (2, 3)])
    def test_dim_disagreeing_with_data(self, call, dim, wrong):
        P = np.random.default_rng(dim).uniform(0, 1, (40, dim))
        lines = random_lines(40, dim, seed=1)
        with pytest.raises(DimensionMismatch, match=f"{dim}D but dim={wrong}"):
            call(P, lines, wrong)
        call(P, lines, dim)

    def test_points_against_lines_named_first(self):
        P = np.random.default_rng(0).uniform(0, 1, (40, 3))
        with pytest.raises(DimensionMismatch, match="points are 3D but lines are 2D"):
            rhs_basic(0.1, P, random_lines(5, 2, seed=0), 2)


class TestDyadicScan:
    def test_ladder_length(self, rng):
        P = rng.uniform(0, 1, (200, 3))
        lines = random_lines(200, 3, seed=5)
        rep = dyadic_scan(P, lines, 0.004, 0.25, 3)
        assert len(rep.rows) == 6  # 0.25 down to 0.25/32

    def test_two_scale_scan(self, rng):
        P = rng.uniform(0, 1, (100, 3))
        lines = random_lines(100, 3, seed=6)
        rep = dyadic_scan(P, lines, 0.12, 0.25, 3)
        assert len(rep.rows) == 2
        assert rep.rows[0].b_difference >= 0
        assert rep.rows[1].b_difference == 0.0

    def test_telescoping(self, rng):
        P = rng.uniform(0, 1, (300, 3))
        lines = random_lines(300, 3, seed=7)
        rep = dyadic_scan(P, lines, 0.02, 0.32, 3)
        total = sum(r.b_difference for r in rep.rows)
        ends = abs(rep.rows[0].b_value - rep.rows[-1].b_value)
        assert total >= ends - 1e-12

    def test_scale_continuity(self, rng):
        P = rng.uniform(0, 1, (500, 3))
        lines = random_lines(500, 3, seed=8)
        b1 = normalized_incidence(0.1, P, lines, 3)
        b2 = normalized_incidence(0.1 * 1.001, P, lines, 3)
        assert abs(b1 - b2) <= 0.05 * max(b1, 1e-12)

    def test_config_small_scale_bound(self):
        # d(X)-separated configuration: B(d/6) <= C / (w^2 |X|)
        X = generate_vertical(1 / 16, 3)
        d = min_config_distance(X)
        w = d / 6
        b = normalized_incidence(w, X.points(), X.lines(), 3)
        assert b <= 2.0 / (w**2 * len(X))

    def test_csv_shape(self, rng):
        P = rng.uniform(0, 1, (60, 3))
        lines = random_lines(60, 3, seed=9)
        rep = dyadic_scan(P, lines, 0.1, 0.2, 3)
        text = rep.to_csv()
        assert text.count("\n") == len(rep.rows) + 9
        assert "rhs_basic" in text

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_rung_counts_once_and_matches_rhs_basic(self, rng, dim, monkeypatch):
        # the row's M_P and M_L feed its rhs_basic; neither is counted twice
        P = rng.uniform(0, 1, (80, dim))
        lines = random_lines(80, dim, seed=10)
        calls = []
        for name in ("m_points", "m_lines"):
            real = getattr(incidence, name)
            monkeypatch.setattr(incidence, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        rep = dyadic_scan(P, lines, 0.125, 0.5, dim)
        assert sorted(calls) == ["m_lines"] * 3 + ["m_points"] * 3
        monkeypatch.undo()
        assert [r.rhs_basic for r in rep.rows] == [rhs_basic(r.scale, P, lines, dim)
                                                   for r in rep.rows]


class TestRhsBasic:
    def test_bush_matching_2d(self):
        # both sides comparable on the concurrent-lines family
        for delta in (2**-4, 2**-5):
            pts, lines = generate_bush(delta, 2, 1, seed=0)
            b1 = normalized_incidence(delta, pts, lines, 2)
            b2 = normalized_incidence(2 * delta, pts, lines, 2)
            lhs2 = (b1 - b2) ** 2
            rhs = rhs_basic(delta, pts, lines, 2)
            assert 1e-2 <= lhs2 / rhs <= 1e2

    def test_collinear_matching_2d(self):
        # dual family: many points on a single line
        for delta in (2**-4, 2**-5):
            k = int(1 / delta)
            P = np.stack([np.linspace(0.05, 0.95, k), np.full(k, 0.5)], axis=1)
            lines = [Line([0.0, 0.5], [1, 0])]
            b1 = normalized_incidence(delta, P, lines, 2)
            b2 = normalized_incidence(2 * delta, P, lines, 2)
            lhs2 = (b1 - b2) ** 2
            rhs = rhs_basic(delta, P, lines, 2)
            assert 1e-2 <= lhs2 / rhs <= 1e2

    def test_random_margin_3d(self, rng):
        delta = 1 / 32
        P = rng.uniform(0, 1, (600, 3))
        lines = random_lines(600, 3, seed=11)
        b1 = normalized_incidence(delta, P, lines, 3)
        b2 = normalized_incidence(2 * delta, P, lines, 3)
        rhs = rhs_basic(delta, P, lines, 3)
        assert (b1 - b2) ** 2 <= rhs / 10


class TestRhsRefined:
    def test_single_direction_gains(self):
        X = generate_vertical(1 / 16, 3)
        P, lines = X.points(), X.lines()
        refined, best_u = rhs_refined(1 / 16, P, lines)
        basic = rhs_basic(1 / 16, P, lines, 3)
        assert refined <= basic * 1.0001
        assert 1 / 16 < best_u <= 1.0

    def test_isotropic_no_gain_regime(self, rng):
        lines = random_lines(400, 3, seed=13)
        P = rng.uniform(0, 1, (400, 3))
        refined, _ = rhs_refined(1 / 16, P, lines)
        basic = rhs_basic(1 / 16, P, lines, 3)
        assert refined >= basic / 16

    def test_deterministic_maximizer(self, rng):
        lines = random_lines(150, 3, seed=14)
        P = rng.uniform(0, 1, (150, 3))
        r1, u1 = rhs_refined(1 / 8, P, lines)
        r2, u2 = rhs_refined(1 / 8, P, lines)
        assert r1 == r2 and u1 == u2

    def test_bounded_by_basic(self, rng):
        for seed in range(4):
            lines = random_lines(200, 3, seed=seed)
            P = np.random.default_rng(seed).uniform(0, 1, (200, 3))
            refined, _ = rhs_refined(1 / 16, P, lines)
            assert refined <= 16 * rhs_basic(1 / 16, P, lines, 3)


class TestRhsCapped:
    def test_degenerate_parameters_reduce_to_basic(self, rng):
        delta = 1 / 16
        lines = random_lines(200, 3, seed=15)
        P = rng.uniform(0, 1, (200, 3))
        M = float(m_lines(lines, delta, delta))
        us = []
        u = 1.0
        while u > delta * (1 + 1e-12):
            us.append(u)
            u /= 2
        # hypothesis M_L(delta x delta/u x 1) <= u^-2 M needs M large enough
        M_cap = max(m_lines(lines, delta, min(1.0, delta / u)) * u**2 for u in us)
        val = rhs_direction_capped(delta, P, lines, nu=1.0, kappa=0.0,
                                   M=max(M, M_cap))
        basic = rhs_basic(delta, P, lines, 3)
        assert val == pytest.approx(basic * max(M, M_cap) / M_cap
                                    if M_cap > M else basic * max(M, M_cap) / M,
                                    rel=2.0)

    def test_single_direction_shrinks(self):
        X = generate_vertical(1 / 16, 3)
        P, lines = X.points(), X.lines()
        delta = 1 / 16
        nu = delta**2 * 2  # single direction: covering number 1 <= nu delta^-2
        val = rhs_direction_capped(delta, P, lines, nu=nu, kappa=1.0, M=1e6)
        val_full = rhs_direction_capped(delta, P, lines, nu=1.0, kappa=1.0, M=1e6)
        assert val <= val_full * (nu ** 0.25) * 1.01 / (1.0 ** 0.25)

    def test_plane_violation_reported(self):
        # coplanar family: the thick-slab counts exceed u^-2 M once M is below
        # |L| delta^2, and the violating scales are listed
        _, lines = generate_plane_example(1 / 16)
        P = np.array([[0.5, 0.5, 0.5]])
        with pytest.raises(HypothesisViolation) as exc:
            rhs_direction_capped(1 / 16, P, lines, nu=1.0, kappa=0.0, M=0.5)
        assert exc.value.violations


class TestRhsWellSpaced:
    def test_alpha_formula_kakeya(self, rng):
        lines = random_lines(300, 3, seed=17)
        P = rng.uniform(0, 1, (300, 3))
        delta = 1 / 16
        K = 1e9  # loose caps: hypotheses vacuous, formula checked
        res = rhs_wellspaced(delta, P, lines, 1.0, 1.0, K, A=1e9, C0=1e9)
        assert res.alpha == pytest.approx(3.0 / 4.0)

    def test_alpha_formula_gamma(self, rng):
        lines = random_lines(300, 3, seed=18)
        P = rng.uniform(0, 1, (300, 3))
        gamma = 0.3
        res = rhs_wellspaced(1 / 16, P, lines, 1 + gamma, 2 - gamma, 1e9,
                             A=1e9, C0=1e9)
        assert res.alpha == pytest.approx(0.5 + gamma / 6.0)

    def test_hypothesis_violation_typed(self):
        X = generate_vertical(1 / 16, 3)
        with pytest.raises(HypothesisViolation):
            rhs_wellspaced(1 / 16, X.points(), X.lines(), 1.0, 1.0, K=1.0,
                           A=1e-9, C0=1.0)

    @pytest.mark.parametrize("family", ["vertical", "random", "bush"])
    def test_wellspaced_tube_count_matches_inline_loop(self, family):
        # the fewest lines within delta and 2 delta in direction of any line,
        # read off the uniformity violation that a tiny C0 forces
        delta = 1 / 8
        if family == "vertical":
            lines = generate_vertical(1 / 16, 3).lines()
        elif family == "random":
            lines = random_lines(150, 3, seed=23)
        else:
            lines = generate_bush(1 / 16, 3, 2, seed=4)[1]
        bases = np.array([ln.base for ln in lines])
        dirs = np.array([ln.dir for ln in lines])
        want = np.inf
        for ln in lines:
            db = bases - ln.base
            t = db @ ln.dir
            perp = np.linalg.norm(db - t[:, None] * ln.dir, axis=1)
            ang = np.minimum(np.linalg.norm(dirs - ln.dir, axis=1),
                             np.linalg.norm(dirs + ln.dir, axis=1))
            want = min(want, np.count_nonzero((perp <= delta) & (ang <= 2 * delta)))
        P = np.full((1, 3), 0.5)
        with pytest.raises(HypothesisViolation) as exc:
            rhs_wellspaced(delta, P, lines, 1.0, 1.0, 1e9, A=1e9, C0=1e-9)
        got = [v[1] for v in exc.value.violations if v[0] == "uniformity"]
        assert got == [want]

    def test_wellspaced_random_inequality(self, rng):
        delta = 1 / 64
        n = 1500
        P = rng.uniform(0, 1, (n, 3))
        lines = random_lines(n, 3, seed=19)
        from heilbronn.tubes import Tube3D, measure_kt_constant
        tubes = [Tube3D(np.clip(l.base, 0.01, 0.99), l.dir, delta, 1.0) for l in lines]
        K = measure_kt_constant(tubes, delta, 1.0, 1.0) * 1.01
        A = 2.0 * max(1.0, 1.0 / (delta**3 * n))
        res = rhs_wellspaced(delta, P, lines, 1.0, 1.0, K, A=A, C0=float(n))
        b1 = normalized_incidence(delta, P, lines, 3)
        b2 = normalized_incidence(delta / 2, P, lines, 3)
        lhs = abs(b2 - b1) ** 4.5
        assert lhs <= 1e3 * res.value


class TestInitialAndDoubleCount:
    def test_vertical_initial_estimate_trivial(self):
        X = generate_vertical(1 / 32, 3)
        chk = initial_estimate_check(X, 1 / 4)
        assert chk.lhs >= chk.rhs / 64.0

    def test_uniformized_initial_estimate(self):
        X = separated_config(600, 3, seed=21, K=8, levels=3)
        from heilbronn.concentration import uniformize
        sub, cert = uniformize(X, 8.0, delta=8.0**-3)
        for w in cert.scales[:-1]:
            chk = initial_estimate_check(sub, w)
            assert chk.lhs >= chk.rhs / cert.K**3

    def test_single_pair_double_count(self):
        X = separated_config(60, 3, seed=22, K=8, levels=2)
        chk = double_count_check(X, 1 / 8)
        assert chk.lhs >= 1

    def test_uniformized_double_count(self):
        X = separated_config(600, 3, seed=23, K=8, levels=3)
        from heilbronn.concentration import uniformize
        sub, cert = uniformize(X, 8.0, delta=8.0**-3)
        for w in cert.scales[:-1]:
            chk = double_count_check(sub, w)
            assert chk.lhs >= chk.rhs / cert.K**3
