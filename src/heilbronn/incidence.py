"""Smoothed incidence counts, the normalized profile B(w), and high-low RHS
evaluators.

The incidence count pairs every point with every line and weights the pair by
the integral of the scale-w mollifier along the line; since the mollifier is
radial this reduces to a cached 1D profile of the point-line distance, so a
count is a sum of table lookups over pairs within the kernel support.  The
right-hand-side evaluators mirror the high-low inequalities: the basic form,
the direction-aware refinement, the capped variant with verified hypotheses,
and the well-spaced variant with the 9/2 exponent.  Slack factors are never
absorbed silently; every evaluator reports the quantities it used, raises
ValueError for a parameter (eps, nu, kappa, M, t1, t2, K, A, C0) that is not
finite and FloatingPointError for a value that is not a positive normal float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .concentration import (
    HypothesisViolation,
    _family_arrays,
    _kt_weights,
    dyadic_pairs,
    m_lines,
    m_lines_sweep,
    m_points,
)
from .configurations import PointLineConfiguration, rescale_config
from .geometry import (
    DimensionMismatch,
    _direction_rows,
    _point_line_blocks,
    _range_checked,
    _require_finite,
    covering_number,
    direction_covering_number,
    line_covering_number,
)
from .kernels import bump_profile


def _dim_checked(P, lines, dim: int) -> np.ndarray:
    """P as a float array; DimensionMismatch when the points and the lines
    differ in dimension, or either differs from `dim`."""
    P = np.asarray(P, dtype=float)
    p_dim, l_dim = P.shape[1] if P.size else dim, lines[0].dim if lines else dim
    if p_dim != l_dim:
        raise DimensionMismatch(f"points are {p_dim}D but lines are {l_dim}D")
    if p_dim != dim:
        raise DimensionMismatch(f"points and lines are {p_dim}D but dim={dim}")
    return P


def incidence_count(w: float, P, lines, dim: int) -> float:
    """Smoothed incidence count at scale w.

    Each (point, line) pair contributes w^(d-1) times the integral of the
    scale-w kernel along the line, i.e. G(d(p, line)/w) for the cached radial
    line profile G; pairs farther than the kernel support contribute exactly
    zero.
    """
    return incidence_many([w], P, lines, dim)[0]


def _scales(ws) -> list[float]:
    """The scales as floats; ValueError unless each lies in (0, 1]."""
    ws = [float(w) for w in ws]
    for w in ws:
        if not 0 < w <= 1:
            raise ValueError("scales must lie in (0, 1]")
    return ws


def incidence_many(ws, P, lines, dim: int) -> list[float]:
    """Incidence counts at several scales sharing one distance computation.

    Point-line distances come in the blocks of `geometry._point_line_blocks`;
    the pairs within the kernel support of the largest scale are kept and
    their profile values summed per scale.
    """
    ws = _scales(ws)
    P = _dim_checked(P, lines, dim)
    prof = bump_profile(dim)
    totals = np.zeros(len(ws))
    if P.size == 0 or not lines:
        return list(totals)
    bases, dirs, _ = _family_arrays(lines)
    dmax = prof.eta_support * max(ws)
    for _, d in _point_line_blocks(P, bases, dirs):
        d = d[d < dmax]
        # a quotient that overflows lies beyond the support, where G(inf) = 0
        with np.errstate(over="ignore"):
            for k, w in enumerate(ws):
                totals[k] += float(np.sum(prof.line_profile(d / w)))
    return [float(t) for t in totals]


def normalized_incidence(w: float, P, lines, dim: int) -> float:
    """B(w): incidence count normalized by w^(d-1) |P| |L| (about 1 at random)."""
    return normalized_incidence_many([w], P, lines, dim)[0]


def _normalizer(norm: float, w: float) -> float:
    """norm, a normalizer carrying the factor w^(d-1); FloatingPointError when
    it is not a normal float (w^(d-1) underflowed)."""
    if not sys.float_info.min <= norm < math.inf:
        raise FloatingPointError(f"w^(d-1) underflows at w = {w!r}")
    return norm


def _per_volume(x: float, norm: float, w: float) -> float:
    """x / _normalizer(norm, w); FloatingPointError when the quotient
    overflows, instead of a division by zero or a silent inf."""
    out = x / _normalizer(norm, w)
    if not math.isfinite(out):
        raise FloatingPointError(f"the value normalized by w^(d-1) overflows at w = {w!r}")
    return out


def normalized_incidence_many(ws, P, lines, dim: int) -> list[float]:
    P = _dim_checked(P, lines, dim)
    if P.shape[0] == 0 or not lines:
        raise ValueError("normalized incidence needs nonempty families")
    ws = _scales(ws)
    # every normalizer is checked before any count: at a scale whose
    # normalizer underflows, the counts' d / w can overflow
    norms = [_normalizer(w ** (dim - 1) * P.shape[0] * len(lines), w) for w in ws]
    counts = incidence_many(ws, P, lines, dim)
    return [_per_volume(c, norm, w) for c, norm, w in zip(counts, norms, ws)]


# ---------------------------------------------------------------------------
# multiscale report


@dataclass(frozen=True)
class MultiscaleRow:
    scale: float
    b_value: float
    b_difference: float      # |B(w) - B(w/2)|, 0.0 on the last rung
    m_points: int
    m_lines: int
    rhs_basic: float
    ratio: float             # difference^2 / rhs_basic


@dataclass(frozen=True)
class MultiscaleReport:
    rows: tuple[MultiscaleRow, ...]

    def to_csv(self) -> str:
        lines = [
            "# multiscale incidence report",
            "# scale: dyadic evaluation scale w",
            "# b_value: normalized smoothed incidence count at w",
            "# b_difference: |B(w) - B(w/2)| between adjacent rungs",
            "# m_points: max points in a w-cube",
            "# m_lines: max lines crossing a w x w x 1 box (w x 1 in 2D)",
            "# rhs_basic: basic high-low right-hand side at w",
            "# ratio: b_difference^2 / rhs_basic",
            "scale,b_value,b_difference,m_points,m_lines,rhs_basic,ratio",
        ]
        for r in self.rows:
            lines.append(f"{r.scale:.12g},{r.b_value:.12g},{r.b_difference:.12g},"
                         f"{r.m_points},{r.m_lines},{r.rhs_basic:.12g},{r.ratio:.12g}")
        return "\n".join(lines) + "\n"


@_range_checked("the basic high-low right-hand side")
def _basic_rhs(w: float, mp: int, ml: int, n_points: int, n_lines: int, dim: int,
               eps: float) -> float:
    """The basic high-low right-hand side from M_P(w) and M_L at w."""
    lead = w ** (-6.0 - eps) if dim == 3 else w ** -3.0
    return lead * (mp / n_points) * (ml / n_lines)


def rhs_basic(w: float, P, lines, dim: int, eps: float = 0.1) -> float:
    """Basic high-low right-hand side at scale w.

    2D: w^-3 (M_P/|P|) (M_L(w x 1)/|L|); 3D: w^(-6-eps) with the w x w x 1 box.
    """
    _require_finite("high-low", eps=eps)
    P = _dim_checked(P, lines, dim)
    return _basic_rhs(w, m_points(P, w), m_lines(lines, w, w), P.shape[0], len(lines),
                      dim, eps)


def dyadic_scan(P, lines, w_min: float, w_max: float, dim: int) -> MultiscaleReport:
    """B(w) with successive differences and concentration data on a dyadic
    ladder; the basic right-hand sides take eps = 0.1."""
    if not 0 < w_min < w_max <= 1:
        raise ValueError("need 0 < w_min < w_max <= 1")
    ws = []
    w = w_max
    while w >= w_min * (1 - 1e-12):
        ws.append(w)
        w /= 2.0
    bs = normalized_incidence_many(ws, P, lines, dim)
    n_points = np.asarray(P).shape[0]
    rows = []
    for i, w in enumerate(ws):
        diff = abs(bs[i] - bs[i + 1]) if i + 1 < len(ws) else 0.0
        mp = m_points(P, w)
        ml = m_lines(lines, w, w)
        rhs = _basic_rhs(w, mp, ml, n_points, len(lines), dim, 0.1)
        rows.append(MultiscaleRow(scale=w, b_value=bs[i], b_difference=diff,
                                  m_points=mp, m_lines=ml, rhs_basic=rhs, ratio=diff**2 / rhs))
    return MultiscaleReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# refined right-hand sides (3D)


def _dyadic_us(delta: float) -> list[float]:
    us = []
    u = 1.0
    while u > delta * (1 + 1e-12):
        us.append(u)
        u /= 2.0
    return us


def _require_3d(bases, rhs: str):
    """Raise ValueError for a 2D family: the `rhs` right-hand side is 3D only."""
    if bases.ndim == 2 and bases.shape[1] != 3:
        raise ValueError(f"the {rhs} high-low right-hand side needs a 3D line family, "
                         f"got dim={bases.shape[1]}")


def _slab_sweep(delta: float, lines, rhs: str):
    """(direction cover at delta, dyadic us from 1 down to delta, and
    M_L(delta x delta/u x 1) for each u): the inputs of the refined and the
    capped right-hand sides.  Raises ValueError for a 2D family."""
    bases, dirs, _ = _family_arrays(lines)
    _require_3d(bases, rhs)
    theta_cover = direction_covering_number(dirs, delta)
    us = _dyadic_us(delta)
    values, _ = m_lines_sweep(lines, [(delta, min(1.0, delta / u)) for u in us])
    return theta_cover, us, values


@_range_checked("the refined high-low right-hand side", value=lambda out: out[0])
def rhs_refined(delta: float, P, lines, eps: float = 0.1):
    """Direction-aware high-low RHS: max over dyadic u of the slab term.

    Returns (value, maximizing_u).  The slab term is
    min(cover(theta)^{1/2} delta, u) * u * M_L(delta x delta/u x 1) / |L|,
    multiplied by delta^(-6-eps) M_P(delta)/|P|.
    """
    _require_finite("high-low", eps=eps)
    P = np.asarray(P, dtype=float)
    theta_cover, us, values = _slab_sweep(delta, lines, "refined")
    best, best_u = -np.inf, us[0]
    for u, ml in zip(us, values):
        term = min(np.sqrt(theta_cover) * delta, u) * u * ml / len(lines)
        if term > best:
            best, best_u = term, u
    lead = delta ** (-6.0 - eps) * m_points(P, delta) / P.shape[0]
    return lead * best, best_u


@_range_checked("the capped high-low right-hand side")
def rhs_direction_capped(delta: float, P, lines, nu: float, kappa: float,
                         M: float, eps: float = 0.1) -> float:
    """Capped high-low RHS nu^(kappa/4) delta^(-6-eps) (M_P/|P|) (M/|L|).

    Hypotheses verified numerically before evaluating: the direction covering
    number is at most nu delta^-2 and every dyadic slab count
    M_L(delta x delta/u x 1) is at most u^(kappa-2) M.  A violation raises
    HypothesisViolation listing the violating scales.
    """
    _require_finite("high-low", nu=nu, kappa=kappa, M=M, eps=eps)
    P = np.asarray(P, dtype=float)
    theta_cover, us, values = _slab_sweep(delta, lines, "capped")
    violations = []
    if theta_cover > nu * delta**-2:
        violations.append(("theta", theta_cover, nu * delta**-2))
    for u, ml in zip(us, values):
        if ml > u ** (kappa - 2.0) * M * (1 + 1e-9):
            violations.append(("slab_u", u, ml, u ** (kappa - 2.0) * M))
    if violations:
        raise HypothesisViolation("capped high-low hypotheses failed", violations)
    return (nu ** (kappa / 4.0) * delta ** (-6.0 - eps)
            * (m_points(P, delta) / P.shape[0]) * (M / len(lines)))


@dataclass(frozen=True)
class WellSpacedRhs:
    value: float
    alpha: float


@_range_checked("the well-spaced high-low right-hand side", value=lambda out: out.value)
def rhs_wellspaced(delta: float, P, lines, t1: float, t2: float, K: float,
                   A: float, C0: float, eps: float = 0.1) -> WellSpacedRhs:
    """Well-spaced high-low RHS with the 9/2-power normalization.

    Verifies the point non-concentration bound M_P(delta) <= A delta^3 |P|,
    the C0-uniformity of the line family at scale delta, and the Katz-Tao
    box bounds with (t1, t2, K) on a dyadic probe grid.  The unspecified
    order-one exponent on C0 is pinned to 1.  Raises ValueError unless C0 > 0
    and t1 + t2 > 0 (alpha divides by it), and for a 2D family.
    """
    _require_finite("high-low", t1=t1, t2=t2, K=K, A=A, C0=C0, eps=eps)
    if C0 <= 0:
        raise ValueError(f"the uniformity constant C0 must be positive, got {C0}")
    if t1 + t2 <= 0:
        raise ValueError(f"alpha = (t1 + 2) / (2 (t1 + t2)) needs t1 + t2 > 0, "
                         f"got t1={t1}, t2={t2}")
    bases, dirs, _ = _family_arrays(lines)
    _require_3d(bases, "well-spaced")
    P = np.asarray(P, dtype=float)
    n_lines = len(lines)
    violations = []
    mp = m_points(P, delta)
    if mp > A * delta**3 * P.shape[0] * (1 + 1e-9):
        violations.append(("points", mp, A * delta**3 * P.shape[0]))

    root = float(np.sqrt(delta))
    pairs = [(delta, delta), (root, root)]
    probe = [(min(u, 1.0), min(w, 1.0)) for u, w in dyadic_pairs(delta, delta, factor=4.0)]
    allscales = sorted(set(pairs + probe))
    values, _ = m_lines_sweep(lines, allscales)
    table = dict(zip(allscales, values))
    for (u, w), (a, b) in zip(probe, _kt_weights(probe, delta, t1, t2)):
        cap = K * a * b
        if table[(u, w)] > cap * (1 + 1e-9):
            violations.append(("katz_tao", u, w, table[(u, w)], cap))

    ml_fine = table[(delta, delta)]
    min_in_tube = np.inf
    for lo, perp in _point_line_blocks(bases, bases, dirs):
        ang = _direction_rows(dirs[None], dirs[lo:lo + perp.shape[0], None])
        near = np.count_nonzero((perp <= delta) & (ang <= 2 * delta), axis=1)
        min_in_tube = min(min_in_tube, int(near.min()))
    if min_in_tube < ml_fine / C0 - 1e-9:
        violations.append(("uniformity", min_in_tube, ml_fine / C0))
    if violations:
        raise HypothesisViolation("well-spaced high-low hypotheses failed", violations)

    alpha = (t1 + 2.0) / (2.0 * t1 + 2.0 * t2)
    ml_coarse = table[(root, root)]
    value = (C0 * delta**-eps * delta**-2.5 * K**alpha * A**3.5
             * ml_coarse ** (1 - alpha) * ml_fine**alpha / n_lines)
    return WellSpacedRhs(value=value, alpha=alpha)


# ---------------------------------------------------------------------------
# initial estimate and double counting on uniformized configurations


@dataclass(frozen=True)
class TwoSidedCheck:
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        """Factor by which the left side would need inflating (<= 1 when it holds)."""
        if self.lhs <= 0:
            return np.inf
        return self.rhs / self.lhs


def initial_estimate_check(config: PointLineConfiguration, w: float) -> TwoSidedCheck:
    """B(w) against the direction-ratio lower bound from the rescaled copy.

    lhs = B(w; P[X], L[X]); rhs = cover(theta[X_w], w) / (w^(d-1) cover(L[X], w)).
    Up to a K^O(1) factor the inequality lhs >= rhs holds on uniformized input.
    """
    dim = config.dim
    P = config.points()
    lines = config.lines()
    lhs = normalized_incidence(w, P, lines, dim)
    rescaled = rescale_config(config, w, config.pairs[0])
    theta_w = direction_covering_number(rescaled.directions(), w)
    lines_w = line_covering_number(lines, w)
    rhs = _per_volume(theta_w, w ** (dim - 1) * lines_w, w)
    return TwoSidedCheck(lhs=lhs, rhs=rhs)


def double_count_check(config: PointLineConfiguration, w: float) -> TwoSidedCheck:
    """Line covering number against w * direction cover * point cover."""
    lines_w = line_covering_number(config.lines(), w)
    rescaled = rescale_config(config, w, config.pairs[0])
    theta_w = direction_covering_number(rescaled.directions(), w)
    points_w = covering_number(config.points(), w)
    return TwoSidedCheck(lhs=float(lines_w), rhs=w * theta_w * points_w)
