import tracemalloc
import warnings

import numpy as np
import pytest

from heilbronn.concentration import (
    ConfigMetrics,
    DegenerateGridError,
    katz_tao_fit,
    m_config,
    m_lines,
    m_lines_2d,
    m_lines_sweep,
    m_points,
    plane_reduction_check,
    uniformize,
)
from heilbronn.configurations import (
    PointLineConfiguration,
    generate_bush,
    generate_plane_example,
    generate_vertical,
    make_config,
    min_config_distance,
)
from heilbronn.geometry import (
    Box,
    Line,
    _direction_rows,
    complete_frame,
    covering_number,
    direction_covering_number,
)

from conftest import line_metric_many, line_metric_rows, lines_box_chords, random_config, \
    random_lines, separated_config


class TestMPoints:
    def test_all_points_equal(self):
        assert m_points(np.zeros((9, 3)), 0.2) == 9

    def test_refuses_scales_without_a_grid(self):
        # w = inf made the grid offsets nan and w = 5e-324 overflowed the cell
        # coordinates, each with a RuntimeWarning before the ValueError
        P = np.random.default_rng(7).uniform(0, 1, (20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (np.inf, np.nan, 0.0, -1.0):
                with pytest.raises(ValueError, match="w must be finite and positive"):
                    m_points(P, w)
            for w in (5e-324, 1e-300):
                with pytest.raises(ValueError, match="int64 range"):
                    m_points(P, w)

    @pytest.mark.parametrize("P", [
        [[0.5e-7, 0.1000003 + 0.5e-7], [1.5e-7, 0.5e-7]],
        [[0.5e-7, 0.5e-7, 0.1000003 + 0.5e-7], [0.5e-7, 1.5e-7, 0.5e-7]],
    ], ids=["2d", "3d"])
    def test_far_cells_do_not_collide(self, P):
        # cells (0, 1000003) and (1, 0) lie 0.1 apart, so no cube holds both;
        # a key packed as k0 * 1_000_003 + k1 would be the same for the two
        assert m_points(np.array(P), 1e-7) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_shifted_grid_dict(self, dim):
        # 1e-7 cubes over the unit cube: cell coordinates up to 10^7
        rng = np.random.default_rng(dim)
        P = np.vstack([rng.uniform(0, 1, (300, dim)), 0.3 + 2e-7 * rng.uniform(0, 1, (40, dim))])
        w = 1e-7
        want = 0
        for mask in range(2**dim):
            off = np.array([(mask >> ax) & 1 for ax in range(dim)]) * (w / 2.0)
            counts = {}
            for key in map(tuple, np.floor((P - off) / w).astype(np.int64).tolist()):
                counts[key] = counts.get(key, 0) + 1
            want = max(want, max(counts.values()))
        assert m_points(P, w) == want

    def test_separated_packing(self, rng):
        X = generate_vertical(1 / 16, 3)
        P = X.points()
        assert m_points(P, 1 / 16) <= 2**3

    def test_point_anchored_oracle(self, rng):
        P = rng.uniform(0, 1, (500, 2))
        w = 0.1
        got = m_points(P, w)
        # exhaustive max over cubes with a corner anchored at each point
        best = 0
        for p in P:
            inside = np.all((P >= p - 1e-12) & (P <= p + w + 1e-12), axis=1)
            best = max(best, int(inside.sum()))
        assert best / 2**2 <= got <= best * 2**2
        assert got >= 1


class TestMLines:
    def test_plane_slab_catches_all(self):
        _, lines = generate_plane_example(1 / 16)
        assert m_lines(lines, 1 / 16, 1.0) >= 0.5 * len(lines)

    def test_bush_axis_box_small(self):
        # concurrent delta-separated directions: a delta x delta x 1 box only
        # captures the aligned lines, an O(1) count
        _, lines = generate_bush(0.05, 3, 1, seed=2)
        assert m_lines(lines, 0.05, 0.05) <= 10

    def test_u_w_order_enforced(self):
        _, lines = generate_plane_example(1 / 8)
        with pytest.raises(ValueError):
            m_lines(lines, 0.5, 0.1)

    def test_dense_net_oracle_small(self, rng):
        # exhaustive search over an oriented-box net at coarse resolution
        lines = random_lines(60, 3, seed=5)
        u, w = 0.15, 0.45
        got = m_lines(lines, u, w)
        bases = np.array([l.base for l in lines])
        dirs = np.array([l.dir for l in lines])
        best = 0
        zs = np.linspace(0.05, 0.95, 7)
        phis = np.linspace(0, np.pi, 8, endpoint=False)
        rolls = np.linspace(0, np.pi, 4, endpoint=False)
        centers = np.stack(np.meshgrid(*[np.linspace(0.1, 0.9, 5)] * 3,
                                       indexing="ij"), axis=-1).reshape(-1, 3)
        for z in zs:
            for phi in phis:
                axis = np.array([np.sqrt(1 - z**2) * np.cos(phi),
                                 np.sqrt(1 - z**2) * np.sin(phi), z])
                base_frame = complete_frame(axis)
                for roll in rolls:
                    c, s = np.cos(roll), np.sin(roll)
                    e1 = c * base_frame[0] + s * base_frame[1]
                    e2 = -s * base_frame[0] + c * base_frame[1]
                    frame = np.vstack([e1, e2, axis])
                    for cen in centers:
                        box = Box(cen, [u / 2, w / 2, 0.5], frame)
                        chords = lines_box_chords(bases, dirs, box)
                        best = max(best, int(np.count_nonzero(chords >= 0.5)))
        assert got >= best / 16
        assert got >= 1

    def test_sweep_monotone_in_w(self):
        _, lines = generate_plane_example(1 / 16)
        scales = [(1 / 16, 1 / 16), (1 / 16, 1 / 4), (1 / 16, 1.0)]
        values, _ = m_lines_sweep(lines, scales)
        assert values == sorted(values)

    def test_box_lipschitz_monotonicity(self):
        # doubled boxes gain at most the squared scale ratios times a constant
        for seed in range(25):
            lines = random_lines(40, 3, seed=seed)
            scales = [(0.1, 0.2), (0.2, 0.4), (0.1, 0.4), (0.2, 0.2)]
            vals, _ = m_lines_sweep(lines, scales)
            v_small = vals[0]
            v_big = vals[1]
            assert v_big <= 64 * (2.0) ** 2 * (2.0) ** 2 * max(v_small, 1)

    def test_2d_rectangle_counting(self):
        lines = [Line([0.5, y], [1, 0]) for y in np.linspace(0.4, 0.6, 9)]
        assert m_lines_2d(lines, 0.25) == 9
        assert m_lines_2d(lines, 0.01) >= 1


class TestMConfig:
    def test_singleton(self):
        from heilbronn.configurations import make_config
        X = make_config([[0.5, 0.5, 0.5]], [Line([0.5, 0.5, 0.5], [0, 0, 1])])
        assert m_config(X, 0.5, 0.5, 0.5) == 1

    def test_unit_scales_count_everything(self):
        X = random_config(50, 3, 1)
        assert m_config(X, 1, 1, 1) == 50

    def test_min_identity_exact(self):
        X = random_config(100, 3, 2)
        mets = ConfigMetrics(X)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, v, w = rng.uniform(0.05, 1.0, 3)
            assert (mets.local_counts(u, v, w).max()
                    == mets.local_counts(u, min(v, w), w).max())

    def test_lipschitz_inflation(self):
        # M(Au, Bv, Cw) <= 64 A^3 B^2 C^4 M(u, v, w) on random configurations
        for seed in range(20):
            X = random_config(60, 3, seed + 50)
            mets = ConfigMetrics(X)
            rng = np.random.default_rng(seed)
            for _ in range(10):
                u, v, w = rng.uniform(0.03, 0.4, 3)
                A, B, C = rng.choice([2.0, 4.0], 3)
                big = mets.local_counts(min(A * u, 1), min(B * v, 1), min(C * w, 1)).max()
                small = mets.local_counts(u, v, w).max()
                assert big <= 64 * A**3 * B**2 * C**4 * small


def dense_config_metrics(config):
    """The n x n x 3 broadcast build of the three ConfigMetrics matrices that the
    row-by-row build replaced: (point_dist, dir_dist, line_dist)."""
    P = config.points()
    D = config.directions()
    bases = config.line_bases()
    n = len(config)
    point_dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    dminus = np.linalg.norm(D[:, None, :] - D[None, :, :], axis=2)
    dplus = np.linalg.norm(D[:, None, :] + D[None, :, :], axis=2)
    dir_dist = np.minimum(dminus, dplus)
    db = bases[None, :, :] - bases[:, None, :]
    t = np.einsum("ijk,ik->ij", db, D)
    perp = np.linalg.norm(db - t[..., None] * D[:, None, :], axis=2)
    if config.dim == 3:
        cross = np.cross(np.broadcast_to(D[:, None, :], (n, n, 3)),
                         np.broadcast_to(D[None, :, :], (n, n, 3)))
        nn = np.linalg.norm(cross, axis=2)
        para = np.abs(np.einsum("ijk,ijk->ij", db, cross))
        with np.errstate(divide="ignore", invalid="ignore"):
            skew = para / np.where(nn < 1e-12, 1.0, nn)
        lmin = np.where(nn < 1e-12, perp, skew)
    else:
        cross = (D[:, None, 0] * D[None, :, 1] - D[:, None, 1] * D[None, :, 0])
        lmin = np.where(np.abs(cross) < 1e-12, perp, 0.0)
    return point_dist, dir_dist, dir_dist + lmin


def _on_bases(lines, dim):
    return make_config([ln.base for ln in lines], lines, dim=dim)


class TestConfigMetricsRowBuild:
    """The pair-by-pair ConfigMetrics against the dense build it replaced.

    Both take every entry from its two members through the same elementwise
    operations (an einsum projection for the line distance of a parallel
    pair, no BLAS product), so all three matrices are equal bit for bit,
    parallel pairs included.
    """

    SCALES = [(0.05, 0.1, 0.2), (0.3, 0.3, 0.3), (0.2, 1.0, 0.45), (1.0, 0.05, 1.0),
              (1.0, 1.0, 1.0), (0.5, 0.2, 0.1)]

    def _check(self, config):
        mets = ConfigMetrics(config)
        pd, dd, ld = dense_config_metrics(config)
        assert np.array_equal(mets.point_dist, pd)
        assert np.array_equal(mets.dir_dist, dd)
        assert np.array_equal(mets.line_dist, ld)
        D = config.directions()
        bases = config.line_bases()
        for i, line in enumerate(config.lines()):
            assert np.array_equal(mets.line_dist[i], line_metric_many(line, bases, D))
        for u, v, w in self.SCALES:
            mask = ((pd <= (np.inf if u >= 1 else u)) & (dd <= (np.inf if v >= 1 else v))
                    & (ld <= (np.inf if w >= 1 else w)))
            assert np.array_equal(mets.local_counts(u, v, w), mask.sum(axis=1))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 17, 120, 500])
    def test_random(self, n, dim):
        self._check(random_config(n, dim, seed=7 * n + dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_vertical_all_parallel(self, dim):
        self._check(generate_vertical(1 / 16, dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bush_concurrent(self, dim):
        _, lines = generate_bush(1 / 16, dim, 2, seed=3)
        self._check(_on_bases(lines, dim))

    @pytest.mark.parametrize("delta", [1 / 16, 1 / 32])
    def test_plane_coplanar(self, delta):
        _, lines = generate_plane_example(delta)
        self._check(_on_bases(lines, 3))

    def test_separated(self):
        self._check(separated_config(300, 3, seed=5))

    def test_peak_memory_three_matrices(self):
        # three 1000 x 1000 float matrices are 24 MB; the dense build peaked
        # near 190 MB on its n x n x 3 temporaries
        X = random_config(1000, 3, seed=11)
        tracemalloc.start()
        try:
            cm = ConfigMetrics(X)
            mats = cm.point_dist, cm.dir_dist, cm.line_dist
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(M.shape == (1000, 1000) for M in mats)
        assert peak < 40e6


class TestConfigMetricsPairEntries:
    """Every ConfigMetrics entry equals the entry of its pair's two-member
    configuration, parallel pairs included: an entry depends only on its two
    members, not on the array or the block that holds them."""

    @staticmethod
    def _check(X, pairs):
        mets = ConfigMetrics(X)
        for i, j in pairs:
            two = ConfigMetrics(PointLineConfiguration(dim=X.dim, pairs=(X.pairs[i], X.pairs[j])))
            for M, T in zip((mets.point_dist, mets.dir_dist, mets.line_dist),
                            (two.point_dist, two.dir_dist, two.line_dist)):
                assert M[i, j] == T[0, 1] and M[j, i] == T[1, 0], (i, j)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_vertical_every_pair(self, dim):
        # every line vertical: every pair is parallel
        X = generate_vertical(1 / 8, dim)
        self._check(X, [(i, j) for i in range(len(X)) for j in range(i + 1, len(X))])

    @pytest.mark.parametrize("family", [
        pytest.param(lambda: _on_bases(generate_bush(1 / 16, 2, 2, seed=3)[1], 2), id="bush2"),
        pytest.param(lambda: _on_bases(generate_bush(1 / 16, 3, 2, seed=3)[1], 3), id="bush3"),
        pytest.param(lambda: _on_bases(generate_plane_example(1 / 32)[1], 3), id="plane32"),
        pytest.param(lambda: generate_vertical(1 / 16, 3), id="vertical16"),
    ])
    def test_parallel_and_sampled_pairs(self, family):
        X = family()
        D = X.directions()
        rng = np.random.default_rng(len(X))
        # every parallel pair (equal directions), then random ones
        par = np.argwhere(np.triu((D[:, None] == D[None]).all(axis=2), 1))
        assert len(par) > 0
        self._check(X, par.tolist() + rng.integers(len(X), size=(300, 2)).tolist())


class TestCoveringProfiles:
    def test_vertical_directions_collapse(self):
        X = generate_vertical(1 / 16, 3)
        for w in (1 / 4, 1 / 8):
            assert direction_covering_number(X.directions(), w) == 1

    def test_sandwich_on_uniformized(self):
        # |P|_w is sandwiched by |X| / M(w, 1, 1) up to the certificate's K
        X = separated_config(400, 3, seed=3, K=8, levels=2)
        sub, cert = uniformize(X, 8.0, delta=8.0**-2)
        metrics = ConfigMetrics(sub)
        for w in cert.scales:
            cover = covering_number(sub.points(), w)
            mx = metrics.local_counts(min(w, 1.0), 1.0, 1.0).max()
            assert cover >= len(sub) / mx / 8.0
            assert cover <= cert.K * len(sub) / mx * 8


class TestKatzTaoFit:
    def test_vertical_unit_constant(self):
        X = generate_vertical(1 / 16, 3)
        fit = katz_tao_fit(X.lines(), 1 / 16)
        # one line per delta x delta x 1 box at the base scale
        base = [r for r in fit.residuals if r[0] == r[1] == 1 / 16]
        assert base[0][2] <= 2

    def test_plane_slab_saturation(self):
        # coplanar family: the thinnest w = 1 slab already captures most
        # lines, the family's defining maximal planar concentration
        _, lines = generate_plane_example(1 / 16)
        fit = katz_tao_fit(lines, 1 / 16)
        assert len(fit.exponents) == 2
        rows_w1 = {u: m for (u, w, m, f) in fit.residuals if w == 1.0}
        assert rows_w1[1 / 16] >= 0.5 * len(lines)

    def test_degenerate_grid(self):
        _, lines = generate_plane_example(1 / 4)
        with pytest.raises(DegenerateGridError):
            katz_tao_fit(lines, 0.9)

    def test_empty_family_raises(self):
        # the dimension comes from the members
        with pytest.raises(ValueError, match="non-empty family"):
            katz_tao_fit([], 1 / 16)
        with pytest.raises(ValueError, match="non-empty family"):
            katz_tao_fit((np.empty((0, 3)), np.empty((0, 3))), 1 / 16)

    def test_bush_flags_concentration(self):
        _, lines = generate_bush(1 / 16, 3, 1, seed=0)
        fit = katz_tao_fit(lines, 1 / 16)
        worst = max(abs(np.log(max(m, 1)) - np.log(f)) for (_, _, m, f) in fit.residuals)
        assert worst > 0.5  # concentration at a point resists the fit


class TestPlaneReduction:
    def test_vertical_small_constant(self):
        X = generate_vertical(1 / 16, 3)
        rep = plane_reduction_check(X, min_config_distance(X), gamma=0.0)
        assert rep.precondition_ok
        assert rep.fitted_constant <= 10

    def test_precondition_violation_reported(self):
        X = generate_vertical(1 / 8, 3)
        rep = plane_reduction_check(X, 0.9, gamma=0.0)
        assert not rep.precondition_ok

    def test_rows_cover_scales(self):
        X = generate_vertical(1 / 8, 3)
        rep = plane_reduction_check(X, 1 / 8, gamma=0.0)
        assert all(r.u * r.w >= 1 / 8 - 1e-12 for r in rep.rows)

    def test_annealed_output_modest_constant(self):
        from heilbronn.search import AnnealSchedule, anneal_max_distance
        X = anneal_max_distance(24, 3, AnnealSchedule(moves_per_epoch=300,
                                                      epochs=15, seed=5))
        d = min_config_distance(X)
        rep = plane_reduction_check(X, d, gamma=0.0)
        assert rep.precondition_ok
        assert rep.fitted_constant <= 100


class TestUniformize:
    def test_grid_input_keeps_structure(self):
        X = separated_config(300, 3, seed=1, K=8, levels=2)
        sub, cert = uniformize(X, 8.0, delta=8.0**-2)
        assert cert.valid
        assert len(sub) >= 0.05 * len(X)

    def test_certificate_revalidates_by_independent_sampling(self):
        X = random_config(400, 3, seed=9)
        sub, cert = uniformize(X, 4.0, delta=2.0**-6)
        assert cert.valid
        # independent recount at up to 100 anchors with fresh distances
        from heilbronn.geometry import line_metric
        pairs = sub.pairs
        rng = np.random.default_rng(0)
        anchors = rng.choice(len(pairs), size=min(100, len(pairs)), replace=False)
        for (si, sj, sk), (mn, mx) in cert.ratios.items():
            for a in anchors:
                cnt = 0
                for q in pairs:
                    dp = np.linalg.norm(pairs[a].point - q.point)
                    dth = min(np.linalg.norm(pairs[a].line.dir - q.line.dir),
                              np.linalg.norm(pairs[a].line.dir + q.line.dir))
                    dl = line_metric(pairs[a].line, q.line)
                    cnt += (dp <= si) and (dth <= sj) and (dl <= sk)
                assert mn <= cnt <= mx

    def test_adversarial_half_clustered(self):
        rng = np.random.default_rng(4)
        half1 = rng.uniform(0, 1, (150, 3))
        half2 = 0.5 + 0.01 * rng.uniform(0, 1, (150, 3))
        pts = np.vstack([half1, half2])
        lines = [Line(p, rng.normal(size=3)) for p in pts]
        from heilbronn.configurations import make_config
        X = make_config(pts, lines)
        sub, cert = uniformize(X, 4.0, delta=2.0**-6)
        assert cert.valid

    def test_k_below_two_rejected(self):
        X = random_config(50, 3, 0)
        with pytest.raises(ValueError):
            uniformize(X, 1.5)


class EagerConfigMetrics:
    """ConfigMetrics as it was before rows were computed on demand: all n
    rows of the three n x n matrices filled at construction."""

    def __init__(self, config):
        P = config.points()
        D = config.directions()
        bases = config.line_bases()
        n = len(config)
        self.point_dist = np.empty((n, n))
        self.dir_dist = np.empty((n, n))
        self.line_dist = np.empty((n, n))
        for i in range(n):
            self.point_dist[i] = np.linalg.norm(P - P[i], axis=1)
            self.dir_dist[i] = _direction_rows(D, D[i])
            self.line_dist[i] = line_metric_rows(bases[i], D[i], bases, D)

    def local_counts(self, u, v, w, subset=None):
        pd, dd, ld = self.point_dist, self.dir_dist, self.line_dist
        if subset is not None:
            pd = pd[np.ix_(subset, subset)]
            dd = dd[np.ix_(subset, subset)]
            ld = ld[np.ix_(subset, subset)]
        uu = np.inf if u >= 1 else u
        vv = np.inf if v >= 1 else v
        ww = np.inf if w >= 1 else w
        return ((pd <= uu) & (dd <= vv) & (ld <= ww)).sum(axis=1)


def eager_uniformize(config, K, delta):
    """uniformize on the eager metrics: (kept indices, scales, certificate
    ratios, indices that survived the separation phase)."""
    n = len(config)
    m = max(1, int(np.floor(np.log(1.0 / delta) / np.log(K))))
    scales = tuple(float(K) ** -(j + 1) for j in range(m))
    P = config.points()
    alive = np.arange(n)
    q = 5
    for s in scales:
        cube = np.floor(P[alive] / s).astype(np.int64)
        cls = cube % q
        packed = cls[:, 0].copy()
        for ax in range(1, cls.shape[1]):
            packed = packed * q + cls[:, ax]
        vals, counts = np.unique(packed, return_counts=True)
        alive = alive[packed == vals[int(np.argmax(counts))]]
    separated = alive.copy()
    metrics = EagerConfigMetrics(config)
    triples = [(si, sj, sk) for si in scales for sj in scales for sk in scales]
    for _ in range(500):
        stable = True
        for (si, sj, sk) in triples:
            counts = metrics.local_counts(si, sj, sk, subset=alive)
            if int(counts.max()) <= K * int(counts.min()):
                continue
            buckets = np.floor(np.log2(counts)).astype(int)
            vals, sizes = np.unique(buckets, return_counts=True)
            alive = alive[buckets == vals[int(np.argmax(sizes))]]
            stable = False
            break
        if stable or alive.size < 2:
            break
    ratios = {}
    for t in triples:
        counts = metrics.local_counts(*t, subset=alive)
        ratios[t] = (int(counts.min()), int(counts.max()))
    return alive, scales, ratios, separated


def _record_subsets(monkeypatch):
    """Member indices of every ConfigMetrics built from now on, in call order."""
    seen = []
    init = ConfigMetrics.__init__

    def recording_init(self, config, subset=None):
        members = np.arange(len(config))
        seen.append(members if subset is None else members[subset])
        init(self, config, subset)

    monkeypatch.setattr(ConfigMetrics, "__init__", recording_init)
    return seen


class TestRowsOnDemand:
    """ConfigMetrics built on a subset, and uniformize on it, against the
    eager build that fills all n rows."""

    # (configuration, K, delta; None for the minimal configuration distance).
    # The coarse deltas keep 11 to 300 pairs through the separation phase and
    # the bucket rounds; the others keep a single pair.
    CASES = {
        "random_1000": (lambda: random_config(1000, 3, seed=13), 4.0, 2.0 ** -6),
        "random_1000_coarse": (lambda: random_config(1000, 3, seed=13), 2.0, 0.3),
        "random_2d_coarse": (lambda: random_config(400, 2, seed=14), 2.0, 0.1),
        "separated": (lambda: separated_config(300, 3, seed=5), 8.0, 8.0 ** -3),
        "vertical": (lambda: generate_vertical(1 / 16, 3), 2.0, None),
        "vertical_coarse": (lambda: generate_vertical(1 / 16, 3), 2.0, 0.3),
        "plane_32": (lambda: _on_bases(generate_plane_example(1 / 32)[1], 3), 2.0, None),
        "plane_32_coarse": (lambda: _on_bases(generate_plane_example(1 / 32)[1], 3), 2.0, 0.2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_uniformize_matches_eager(self, case, monkeypatch):
        make, K, delta = self.CASES[case]
        X = make()
        if delta is None:
            delta = min_config_distance(X)
        alive, scales, ratios, separated = eager_uniformize(X, K, delta)
        seen = _record_subsets(monkeypatch)
        sub, cert = uniformize(X, K, delta=delta)
        kept = np.array([X.pairs.index(p) for p in sub.pairs])
        assert np.array_equal(kept, alive)
        assert cert.scales == scales and cert.ratios == ratios
        assert (cert.retained, cert.original) == (alive.size, len(X))
        # the metrics of the separation phase's survivors, then of each
        # bucket prune's survivors, each inside the one before
        assert np.array_equal(seen[0], separated)
        assert np.array_equal(seen[-1], alive)
        for before, after in zip(seen, seen[1:]):
            assert set(after.tolist()) < set(before.tolist())

    def test_uniformize_random_1000_fills_survivor_rows_only(self, monkeypatch):
        X = random_config(1000, 3, seed=13)
        seen = _record_subsets(monkeypatch)
        tracemalloc.start()
        try:
            sub, cert = uniformize(X, 4.0, delta=2.0 ** -6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [m.tolist() for m in seen] == [sorted(X.pairs.index(p) for p in sub.pairs)]
        assert len(seen[0]) < 10
        # the eager metrics held 24 MB of matrices here
        assert peak < 2e6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_subset_counts_and_matrices_bit_identical(self, dim):
        X = random_config(300, dim, seed=20 + dim)
        eager = EagerConfigMetrics(X)
        rng = np.random.default_rng(dim)
        subsets = [np.sort(rng.choice(300, size=k, replace=False)) for k in (1, 7, 120)]
        mask = rng.random(300) < 0.3
        for subset in subsets + [subsets[2][::-1], mask, None]:
            members = np.arange(300) if subset is None else np.arange(300)[subset]
            mets = ConfigMetrics(X, subset)
            for got, full in zip((mets.point_dist, mets.dir_dist, mets.line_dist),
                                 (eager.point_dist, eager.dir_dist, eager.line_dist)):
                assert np.array_equal(got, full[np.ix_(members, members)])
            for u, v, w in TestConfigMetricsRowBuild.SCALES:
                assert np.array_equal(mets.local_counts(u, v, w),
                                      eager.local_counts(u, v, w, subset=members))

    def test_construction_memory_tracks_subset(self):
        X = random_config(1000, 3, seed=11)
        tracemalloc.start()
        try:
            few = ConfigMetrics(X, np.arange(0, 1000, 143))
            built_few = tracemalloc.get_traced_memory()[1]
            del few
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mets = ConfigMetrics(X)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert mets.point_dist.shape == (1000, 1000)
        assert built_few < 1e6
        # three 1000 x 1000 matrices are 24 MB
        assert 24e6 <= held < 26e6


class TestRescaledCounts:
    def test_rescaled_size_tracks_local_count(self):
        # separated cover: every pair within the anchor's scale-ball lies in
        # the anchor's cube, so the rescaled size reaches the local count up
        # to the certificate factor
        from heilbronn.configurations import rescale_config
        X = separated_config(500, 3, seed=31, K=8, levels=2)
        sub, cert = uniformize(X, 8.0, delta=8.0**-2)
        scale = cert.scales[0]
        mets = ConfigMetrics(sub)
        counts = mets.local_counts(scale, 1.0, 1.0)
        anchor = sub.pairs[int(np.argmax(counts))]
        rescaled = rescale_config(sub, scale, anchor)
        m = mets.local_counts(scale, 1.0, 1.0).max()
        assert len(rescaled) >= m / (2 * cert.K)
