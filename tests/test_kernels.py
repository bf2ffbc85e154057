import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq

from heilbronn.kernels import (
    _SUPPORT_RADIUS,
    _chi_mass,
    _simpson,
    _smoothstep_down,
    _sphere_surface,
    bump_profile,
)

from conftest import eta_table


def line_pair_weight(w, dist, dim):
    """Integral of eta_w along an infinite line at distance `dist` from the
    point: w^(1-d) G(dist / w)."""
    return bump_profile(dim).line_profile(np.asarray(dist, dtype=float) / w) * w ** (1 - dim)


def kernel_floor(dim):
    """(c, floor) such that the normalized pair profile G(tau) >= floor for tau <= c."""
    c = 0.5
    return c, float(bump_profile(dim).line_profile(c))


@pytest.fixture(scope="module", params=[2, 3])
def profile(request):
    return bump_profile(request.param)


class TestBaseBump:
    def test_range(self, profile):
        r = np.linspace(0, 3, 4001)
        chi = profile.chi(r)
        assert np.all(chi >= 0) and np.all(chi <= 1)

    def test_floor_at_half(self, profile):
        assert float(profile.chi(0.5)) >= 0.5

    def test_vanishes_beyond_two(self, profile):
        assert np.all(profile.chi(np.linspace(2.0, 5.0, 100)) == 0)

    def test_unit_mass(self, profile):
        r = np.linspace(0, profile.support_radius, 8001)
        surf = 2 * np.pi if profile.dim == 2 else 4 * np.pi
        mass = surf * simpson(profile.chi(r) * r ** (profile.dim - 1), x=r)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestEta:
    def test_unit_mass(self, profile):
        assert profile.eta_mass == pytest.approx(1.0, abs=1e-4)

    def test_support_radius(self, profile):
        assert profile.eta_support <= 3.0
        assert float(eta_table(profile, profile.eta_support * 1.01)) == 0.0

    def test_nonnegative(self, profile):
        assert np.all(profile.eta_values >= 0)

    def test_center_matches_monte_carlo(self):
        # independent MC estimate of (chi_1 * chi_{1/2})(0) in 3D
        prof = bump_profile(3)
        rng = np.random.default_rng(42)
        R = prof.support_radius
        Y = rng.uniform(-R / 2, R / 2, (10**6, 3))
        r = np.linalg.norm(Y, axis=1)
        mc = float(np.mean(prof.chi(r) * 8 * prof.chi(2 * r)) * R**3)
        assert mc == pytest.approx(prof.eta_values[0], rel=1e-2)


class TestLineProfile:
    def test_matches_dense_quadrature(self, profile):
        # integral of eta_w along a line at distance tau, via fine Simpson
        w = 0.08
        for tau in (0.0, 0.3, 0.9):
            sig = np.arange(-3 * w, 3 * w, w / 256)
            radii = np.sqrt((tau * w) ** 2 + sig**2)
            vals = eta_table(profile, radii / w) / w**profile.dim
            want = simpson(vals, x=sig)
            got = float(line_pair_weight(w, tau * w, profile.dim))
            if want > 1e-12:
                assert got == pytest.approx(want, rel=1e-3)
            else:
                assert got <= 1e-12

    def test_monotone_decreasing(self, profile):
        g = profile.line_values
        assert np.all(np.diff(g) <= 1e-12)

    def test_floor_constant(self):
        c, floor = kernel_floor(3)
        assert floor > 0
        prof = bump_profile(3)
        assert float(prof.line_profile(c)) >= floor


def _dense_profile(dim):
    """Reference build: every table cell evaluated on the full (a, rho) grid."""
    R = brentq(lambda s: _chi_mass(s, dim) - 1.0, 0.2, 1.9, xtol=1e-13)
    r1 = R / 2.0

    def chi(r):
        u = (r - r1) / (R - r1)
        return np.where(r <= r1, 1.0, np.where(r >= R, 0.0, _smoothstep_down(u)))

    support = 1.5 * R
    tgrid = np.linspace(0.0, support * 1.02, 321)
    na, nb = 321, 201
    a = np.linspace(-R, support + R / 2, na)
    if dim == 3:
        rho = np.linspace(0.0, R, nb)
        A, Rho = np.meshgrid(a, rho, indexing="ij")
        first = chi(np.sqrt(A**2 + Rho**2))
        ring = 2 * np.pi * Rho
        vals = np.empty_like(tgrid)
        for i, t in enumerate(tgrid):
            second = chi(2.0 * np.sqrt((t - A) ** 2 + Rho**2)) * 8.0
            vals[i] = simpson(simpson(first * second * ring, x=rho, axis=1), x=a)
    else:
        b = np.linspace(0.0, R, nb)
        A, Bm = np.meshgrid(a, b, indexing="ij")
        first = chi(np.sqrt(A**2 + Bm**2))
        vals = np.empty_like(tgrid)
        for i, t in enumerate(tgrid):
            second = chi(2.0 * np.sqrt((t - A) ** 2 + Bm**2)) * 4.0
            vals[i] = 2.0 * simpson(simpson(first * second, x=b, axis=1), x=a)
    mass = _sphere_surface(dim) * float(simpson(vals * tgrid ** (dim - 1), x=tgrid))

    taugrid = np.linspace(0.0, support * 1.02, 481)
    sigma = np.linspace(0.0, support * 1.02, 2001)
    G = np.empty_like(taugrid)
    for i, tau in enumerate(taugrid):
        radii = np.sqrt(tau**2 + sigma**2)
        G[i] = 2.0 * float(np.trapezoid(np.interp(radii, tgrid, vals, right=0.0), sigma))
    return dict(plateau_radius=r1, support_radius=R, eta_mass=mass, eta_grid=tgrid,
                eta_values=vals, line_grid=taugrid, line_values=G)


def test_support_restricted_build_is_bit_identical(profile):
    want = _dense_profile(profile.dim)
    for name in ("support_radius", "plateau_radius", "eta_mass"):
        assert getattr(profile, name) == want[name], name
    for name in ("eta_grid", "eta_values", "line_grid", "line_values"):
        assert np.array_equal(getattr(profile, name), want[name]), name


@pytest.mark.parametrize("dim", [2, 3])
def test_stored_radius_is_the_brentq_root(dim):
    root = brentq(lambda s: _chi_mass(s, dim) - 1.0, 0.2, 1.9, xtol=1e-13)
    assert _SUPPORT_RADIUS[dim].hex() == root.hex()


@pytest.mark.parametrize("n", [3, 5, 201, 321])
def test_simpson_port_equals_scipy(n):
    rng = np.random.default_rng(n)
    for x in (np.linspace(-0.8, 1.3, n), np.cumsum(rng.uniform(0.01, 1.0, n))):
        for y in (rng.standard_normal(n), rng.standard_normal((7, n))):
            assert np.array_equal(_simpson(y, x), simpson(y, x=x, axis=-1))


def test_import_and_build_load_no_root_finder_or_quadrature():
    code = ("import sys, heilbronn\n"
            "from heilbronn.kernels import bump_profile\n"
            "bump_profile(2), bump_profile(3)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.optimize', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_import_build_pairs_and_pair_pipeline_load_no_scipy(tmp_path):
    pts = str(Path(__file__).resolve().parent / "golden" / "pts3.pts")
    out = str(tmp_path / "pairs.csv")
    code = ("import sys\n"
            "import numpy as np\n"
            "import heilbronn, heilbronn.cli\n"
            "from heilbronn.kernels import bump_profile\n"
            "bump_profile(2), bump_profile(3)\n"
            "heilbronn.greedy_close_pairs(np.random.default_rng(0).uniform(0, 1, (64, 3)))\n"
            f"assert heilbronn.cli.main(['pair-pipeline', '-p', {pts!r}, '-o', {out!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert res.stdout.strip().splitlines()[-1] == "[]"
