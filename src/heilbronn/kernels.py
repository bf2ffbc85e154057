"""Radial mollifier used by the smoothed incidence counts.

The base bump chi is radial with value 1 on a plateau, a C^2 quintic join
down to 0, and unit total mass in the ambient dimension; the outer radius is
solved numerically so the mass constraint holds with the plateau pinned at
half the outer radius.  The smoothing kernel eta is the convolution of chi at
scale w with chi at scale w/2; because everything is radial, eta reduces to a
1D table, and the integral of eta along an infinite line reduces to a 1D
profile of the point-line distance.  All tables are built once per dimension
and cached.  The convolution is integrated only over the integrand's support:
grid rows and cells where a factor is exactly 0 or 1 are filled in without
being evaluated, which gives the same table bits as the dense grid.  A cold
build takes about 0.15-0.2 s per dimension on a 2-core Xeon VM.

The module needs numpy only: the outer radius is a stored root (checked in
the tests against scipy's brentq) and the Simpson rule is a port of scipy's,
so importing the package loads neither scipy.optimize nor scipy.integrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Outer radius R of chi with unit mass in dimension d: the root of
# _chi_mass(R, d) = 1 that scipy.optimize.brentq finds on [0.2, 1.9] with
# xtol=1e-13, stored so that no root finder runs at import or build time.
_SUPPORT_RADIUS = {2: 0.7463526719829228, 3: 0.8144068255087291}


def _smoothstep_down(u: np.ndarray) -> np.ndarray:
    """C^2 monotone join: 1 at u=0, 0 at u=1, flat at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return 1.0 - (10 * u**3 - 15 * u**4 + 6 * u**5)


def _chi(r, r1: float, R: float) -> np.ndarray:
    """The base bump at radius r with plateau radius r1 and outer radius R:
    exactly 1 for r <= r1 and 0 for r >= R; only the join between them (and
    a nan radius) runs the quintic."""
    r = np.asarray(r, dtype=float)
    plateau = r <= r1
    out = np.where(plateau, 1.0, 0.0)
    join = ~(plateau | (r >= R))
    out[join] = _smoothstep_down((r[join] - r1) / (R - r1))
    return out


def _sphere_surface(dim: int) -> float:
    return 2 * np.pi if dim == 2 else 4 * np.pi


@dataclass(frozen=True)
class BumpProfile:
    """Radial bump chi and derived kernel tables for one ambient dimension."""

    dim: int
    plateau_radius: float
    support_radius: float
    eta_grid: np.ndarray       # radii t for the eta table (scale w=1)
    eta_values: np.ndarray     # eta_1(t)
    line_grid: np.ndarray      # distances tau for the line-integral profile
    line_values: np.ndarray    # G(tau) = integral of eta_1 along a line at distance tau
    eta_mass: float            # numerically integrated total mass of eta_1

    def chi(self, r) -> np.ndarray:
        """Radial value of the base bump at |x| = r (scale 1)."""
        return _chi(r, self.plateau_radius, self.support_radius)

    def line_profile(self, tau) -> np.ndarray:
        """G(tau): integral of eta_1 over an infinite line at distance tau from 0."""
        return np.interp(np.asarray(tau, dtype=float), self.line_grid, self.line_values,
                         left=self.line_values[0], right=0.0)

    @property
    def eta_support(self) -> float:
        """Support radius of eta_1 (equals 1.5x the chi support)."""
        return 1.5 * self.support_radius


def _chi_mass(R: float, dim: int) -> float:
    r = np.linspace(0.0, R, 4001)
    integrand = _chi(r, R / 2.0, R) * r ** (dim - 1)
    return _sphere_surface(dim) * float(np.trapezoid(integrand, r))


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson rule along the last axis of y at the strictly
    increasing samples x, an odd number of them: scipy.integrate.simpson's
    rule for that case, operation for operation, so the sums keep its bits."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[..., 0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[..., 1:-1:2] * (hsum * (hsum / hprod))
                        + y[..., 2::2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=-1)


def _build_profile(dim: int) -> BumpProfile:
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    R = _SUPPORT_RADIUS[dim]
    r1 = R / 2.0

    # eta_1(t) = int chi(|y|) * 2^d chi(2|t e1 - y|) dy, reduced by symmetry to
    # an (a, rho) grid: a along e1, rho the distance from the e1 axis (3D, with
    # ring weight 2 pi rho) or the transverse coordinate (2D, even in rho).
    support = 1.5 * R
    tgrid = np.linspace(0.0, support * 1.02, 321)
    na, nb = 321, 201
    a = np.linspace(-R, support + R / 2, na)
    rho = np.linspace(0.0, R, nb)
    rho2 = rho**2
    first = _chi(np.sqrt(a[:, None] ** 2 + rho2), r1, R)
    live = first.any(axis=1)
    ring, scale = (2 * np.pi * rho, 8.0) if dim == 3 else (1.0, 4.0)
    vals = np.empty_like(tgrid)
    inner = np.empty(na)
    for i, t in enumerate(tgrid):
        # chi(2 dist) is exactly 0 once 2|t - a| >= R, tested on the rho = 0
        # column: adding rho**2 >= 0 can only raise the rounded distance.  So
        # outside this window of rows, and on rows where chi(|y|) is 0, the
        # integrand and its inner integral are exactly 0.
        d = t - a
        near = (2.0 * np.sqrt(d**2) < R) & live
        second = _chi(2.0 * np.sqrt(d[near, None] ** 2 + rho2), r1, R) * scale
        inner.fill(0.0)
        inner[near] = _simpson(first[near] * second * ring, rho)
        vals[i] = _simpson(inner, a)
    if dim == 2:
        vals *= 2.0  # rho >= 0 is half of the transverse line

    mass = _sphere_surface(dim) * float(_simpson(vals * tgrid ** (dim - 1), tgrid))

    # Line-integral profile G(tau) from the eta table.
    taugrid = np.linspace(0.0, support * 1.02, 481)
    sigma = np.linspace(0.0, support * 1.02, 2001)
    G = np.empty_like(taugrid)
    for i, tau in enumerate(taugrid):
        radii = np.sqrt(tau**2 + sigma**2)
        vals_line = np.interp(radii, tgrid, vals, right=0.0)
        G[i] = 2.0 * float(np.trapezoid(vals_line, sigma))

    tgrid.setflags(write=False)
    vals.setflags(write=False)
    taugrid.setflags(write=False)
    G.setflags(write=False)
    return BumpProfile(dim=dim, plateau_radius=r1, support_radius=R,
                       eta_grid=tgrid, eta_values=vals,
                       line_grid=taugrid, line_values=G, eta_mass=mass)


_PROFILES: dict[int, BumpProfile] = {}


def bump_profile(dim: int) -> BumpProfile:
    """Cached kernel tables for the given ambient dimension."""
    if dim not in _PROFILES:
        _PROFILES[dim] = _build_profile(dim)
    return _PROFILES[dim]
