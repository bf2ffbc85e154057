import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from heilbronn import tubes as tubes_mod
from heilbronn.concentration import HypothesisViolation
from heilbronn.geometry import _ranges, complete_frame, direction_distance
from heilbronn.tubes import (
    Shading,
    Tube2D,
    Tube3D,
    TwoEndsResult,
    check_planar_brush,
    check_space_brush,
    generate_katz_tao_tubes,
    measure_kt_constant,
    shading_union_volume,
    two_ends_decompose,
)

from conftest import net_points


def pencil(n, delta, center=(0.5, 0.5)):
    angles = np.linspace(0, np.pi, n, endpoint=False)
    return [Tube2D(center, [np.cos(a), np.sin(a)], delta, 1.0) for a in angles]


def random_tubes(n, delta, seed, dim=2):
    rng = np.random.default_rng(seed)
    cls = Tube2D if dim == 2 else Tube3D
    return [cls(rng.uniform(0.1, 0.9, dim), rng.normal(size=dim), delta, 1.0)
            for _ in range(n)]


def grid(k, delta):
    """k vertical and k horizontal unit tubes crossing around (0.5, 0.5)."""
    return ([Tube2D([0.2 + 0.05 * i, 0.5], [0, 1], delta, 1.0) for i in range(k)]
            + [Tube2D([0.5, 0.2 + 0.05 * i], [1, 0], delta, 1.0) for i in range(k)])


class TestTubeEquality:
    @pytest.mark.parametrize("cls,center,dir", [
        (Tube2D, [0.5, 0.25], [3.0, 4.0]),
        (Tube3D, [0.5, 0.25, 0.75], [2.0, -1.0, 2.0]),
    ])
    def test_equal_tubes_compare_and_hash_equal(self, cls, center, dir):
        # a Tube3D used to raise ValueError on == and TypeError on hash()
        t, copy = cls(center, dir, 0.1, 1.0), cls(list(center), dir, 0.1, 1.0)
        assert t == copy and hash(t) == hash(copy) and len({t, copy}) == 1
        assert t != cls(center, dir, 0.1, 0.5) and t != cls(center, dir, 0.05, 1.0)
        assert t != cls(np.add(center, 1e-3), dir, 0.1, 1.0)
        assert t.__eq__(tuple(center)) is NotImplemented

    def test_planar_never_equals_spatial(self):
        flat = Tube2D([0.5, 0.5], [1.0, 0.0], 0.1, 1.0)
        space = Tube3D([0.5, 0.5, 0.0], [1.0, 0.0, 0.0], 0.1, 1.0)
        assert flat != space and space != flat and len({flat, space}) == 2
        assert not issubclass(Tube3D, Tube2D) and not issubclass(Tube2D, Tube3D)

    def test_constructor_checks_the_dimension(self):
        with pytest.raises(ValueError, match="Tube2D lives in the plane"):
            Tube2D([0.5, 0.5, 0.5], [1.0, 0.0, 0.0], 0.1, 1.0)
        with pytest.raises(ValueError, match="Tube3D lives in space"):
            Tube3D([0.5, 0.5], [1.0, 0.0], 0.1, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            Tube3D([0.5, 0.5, 0.5], [1.0, 0.0, 0.0], 0.1, 1.0).width = 0.2

    @pytest.mark.parametrize("cls,center,width,length,field", [
        (Tube2D, [np.inf, 0.5], 0.1, 1.0, "center[0]=inf"),
        (Tube2D, [0.5, -np.inf], 0.1, 1.0, "center[1]=-inf"),
        (Tube3D, [0.5, np.nan, 0.5], 0.1, 1.0, "center[1]=nan"),
        (Tube2D, [0.5, 0.5], np.inf, np.inf, "width=inf, length=inf"),
        (Tube3D, [0.5, 0.5, 0.5], 0.1, np.inf, "length=inf"),
        (Tube3D, [0.5, 0.5, 0.5], np.nan, 1.0, "width=nan"),
    ])
    def test_constructor_names_a_field_that_is_not_finite(self, cls, center, width, length,
                                                          field):
        # all were accepted; a nan-centred Tube3D then gave a union volume of
        # 0.0078125 with "invalid value encountered in cast" warnings
        with pytest.raises(ValueError, match=re.escape(f"{cls.__name__} parameters must be "
                                                       f"finite, got {field}")):
            cls(center, np.eye(len(center))[0], width, length)


class TestTwoEnds:
    def test_parallel_disjoint_trivial(self):
        tubes = [Tube2D([0.1 + 0.08 * i, 0.5], [0, 1], 0.01, 1.0) for i in range(9)]
        res = two_ends_decompose(tubes, 0.01, 0.125)
        assert res.overlap_measured == 1
        assert all(len(s) == 0 for s in res.selection)

    def test_pencil_excision(self):
        tubes = pencil(100, 2**-6)
        res = two_ends_decompose(tubes, 2**-6, 2**-3, rich_constant=0.05)
        # the crossing point is excised and the residual overlap drops below
        # the rich threshold
        assert res.overlap_measured < res.rich_threshold
        assert res.overlap_measured <= 100 * res.span**-2 * np.sqrt(res.n_tubes)
        assert res.max_selection <= 10 * np.log(2**6) / np.log(2 / res.span)
        assert res.max_selection >= 1

    def test_determinism(self):
        tubes = pencil(60, 2**-6)
        r1 = two_ends_decompose(tubes, 2**-6, 2**-3, rich_constant=0.1)
        r2 = two_ends_decompose(tubes, 2**-6, 2**-3, rich_constant=0.1)
        assert r1.tubes_out == r2.tubes_out
        assert r1.selection == r2.selection
        assert r1.overlap_measured == r2.overlap_measured

    def test_span_delta_ratio_enforced(self):
        tubes = pencil(10, 2**-5)
        with pytest.raises(ValueError):
            two_ends_decompose(tubes, 2**-5, 2**-3)

    def test_default_threshold_trivial_at_desk_scale(self):
        tubes = random_tubes(300, 2**-7, seed=1)
        res = two_ends_decompose(tubes, 2**-7, 2**-3)
        assert res.rich_threshold > len(tubes)
        assert res.overlap_upper <= res.overlap_bound

    def test_approx_mode_brackets(self):
        tubes = random_tubes(500, 2**-8, seed=2)
        res = two_ends_decompose(tubes, 2**-8, 2**-3)
        assert not res.exact_net
        assert res.overlap_measured <= res.overlap_upper

    def test_parameter_validation(self):
        tubes = pencil(10, 0.01)
        with pytest.raises(ValueError):
            two_ends_decompose(tubes, 0.2, 0.1)


class TestShadingVolume:
    def test_single_tube_area(self):
        t = Tube2D([0.5, 0.5], [1, 0], 0.04, 1.0)
        v = shading_union_volume([t], Shading.full([t]), 0.01)
        assert v == pytest.approx(0.04, rel=0.05)

    def test_disjoint_additivity(self):
        ts = [Tube2D([0.2, 0.2], [1, 0], 0.04, 1.0),
              Tube2D([0.2, 0.8], [0, 1], 0.04, 1.0)]
        v = shading_union_volume(ts, Shading.full(ts), 0.01)
        assert v == pytest.approx(0.08, rel=0.05)

    def test_idempotent_on_duplicates(self):
        t = Tube2D([0.5, 0.5], [1, 0], 0.04, 1.0)
        ts = [t, Tube2D([0.5, 0.5], [1, 0], 0.04, 1.0)]
        v = shading_union_volume(ts, Shading.full(ts), 0.01)
        assert v == pytest.approx(0.04, rel=0.05)

    def test_resolution_guard(self):
        t = Tube2D([0.5, 0.5], [1, 0], 0.04, 1.0)
        with pytest.raises(ValueError):
            shading_union_volume([t], Shading.full([t]), 0.02)

    def test_union_bound_and_containment(self, rng):
        tubes = random_tubes(25, 0.03, seed=8)
        v = shading_union_volume(tubes, Shading.full(tubes), 0.0075)
        total = sum(t.width * t.length for t in tubes)
        biggest = max(t.width * t.length for t in tubes)
        assert v <= total * 1.05
        assert v >= biggest * 0.9

    def test_partial_shading_density(self):
        t = Tube2D([0.5, 0.5], [1, 0], 0.04, 1.0)
        s = Shading([t], [[(-0.25, 0.25)]])
        assert s.density(0) == pytest.approx(0.5)
        v = shading_union_volume([t], s, 0.01)
        assert v == pytest.approx(0.02, rel=0.07)

    def test_3d_cylinder_volume(self):
        t = Tube3D([0.5, 0.5, 0.5], [0, 0, 1], 0.08, 1.0)
        v = shading_union_volume([t], Shading.full([t]), 0.02)
        assert v == pytest.approx(np.pi * 0.04**2 * 1.0, rel=0.15)

    @pytest.mark.parametrize("make,width", [(Tube3D, 1e-6), (Tube2D, 1e-9)], ids=["3d", "2d"])
    def test_far_apart_tubes_add_up(self, make, width):
        # two thin tubes in opposite corners: their cells' bounding box has
        # more than 2^63 cells, which no linear key of that box can number
        dim = 3 if make is Tube3D else 2
        ts = [make(np.full(dim, c), np.eye(dim)[0], width, 4 * width) for c in (5e-6, 1 - 5e-6)]
        res = width / 4
        one = [shading_union_volume([t], Shading.full([t]), res) for t in ts]
        assert all(v > 0 for v in one)
        both = shading_union_volume(ts, Shading.full(ts), res)
        assert both == pytest.approx(sum(one), rel=1e-12)

    @pytest.mark.parametrize("scale", [1, 2**40], ids=["box", "huge-box"])
    def test_distinct_rows_equals_unique(self, scale):
        rng = np.random.default_rng(5)
        cells = rng.integers(-20, 20, (400, 3)) * np.array([1, scale, scale])
        cells = np.concatenate([cells, cells[::3]])
        assert tubes_mod._distinct_rows(cells) == np.unique(cells, axis=0).shape[0]


class TestBrushChecks:
    def test_disjoint_parallel_saturates(self):
        delta = 0.02
        tubes = [Tube2D([0.1 + 0.06 * i, 0.5], [0, 1], delta, 1.0) for i in range(14)]
        K = measure_kt_constant(tubes, delta, 1.0) * 1.01
        rep = check_planar_brush(tubes, Shading.full(tubes), 1.0, K)
        assert rep.measured_volume >= rep.bound / 10.0

    def test_pencil_small_family(self):
        delta = 1 / 64
        tubes = pencil(20, delta)
        K = measure_kt_constant(tubes, delta, 1.0) * 1.01
        rep = check_planar_brush(tubes, Shading.full(tubes), 1.0, K)
        assert rep.constant_needed <= 1e3

    def test_planar_kt_hypothesis_enforced(self):
        delta = 1 / 32
        tubes = pencil(40, delta)
        with pytest.raises(HypothesisViolation):
            check_planar_brush(tubes, Shading.full(tubes), 1.0, K=1.0)

    def test_density_precondition(self):
        tubes = random_tubes(10, 0.05, seed=9)
        s = Shading.random_fraction(tubes, 0.02, seed=0)
        with pytest.raises(ValueError):
            check_planar_brush(tubes, s, 1.0, K=100.0)

    def test_disjoint_3d_exceeds_bound(self):
        delta = 0.02
        tubes = [Tube3D([0.1 + 0.05 * i, 0.5, 0.5], [0, 0, 1], delta, 1.0)
                 for i in range(15)]
        K = measure_kt_constant(tubes, delta, 1.0, 1.0) * 1.01
        rep = check_space_brush(tubes, Shading.full(tubes), 1.0, 1.0, K)
        # exponent (2+t1)/(2t1+2t2) = 3/4 <= 1: disjoint unions beat the bound
        assert rep.measured_volume >= rep.bound

    def test_exponent_spot_check(self):
        assert (2.0 + 1.0) / (2.0 + 2.0) == pytest.approx(0.75)

    def test_hairbrush_family(self):
        delta = 1 / 32
        rng = np.random.default_rng(11)
        tubes = []
        for _ in range(60):  # brush through the z-axis segment
            z = rng.uniform(0.2, 0.8)
            v = rng.normal(size=3)
            tubes.append(Tube3D([0.5, 0.5, z], v, delta, 1.0))
        K = measure_kt_constant(tubes, delta, 1.0, 1.0) * 1.01
        rep = check_space_brush(tubes, Shading.full(tubes), 1.0, 1.0, K)
        assert rep.constant_needed <= 1e3


class TestKatzTaoGenerator:
    def test_unconstrained_when_exponents_large(self):
        fam, complete = generate_katz_tao_tubes(1 / 16, 6.0, 6.0, 40, seed=1, dim=3)
        assert complete and len(fam) == 40

    def test_single_tube(self):
        fam, complete = generate_katz_tao_tubes(1 / 16, 1.0, 1.0, 1, seed=2, dim=3)
        assert complete and len(fam) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_certified_by_measurement(self, dim):
        delta = 1 / 16
        fam, _ = generate_katz_tao_tubes(delta, 1.0, 1.0, 80, seed=3, dim=dim)
        K = measure_kt_constant(fam, delta, 1.0, 1.0 if dim == 3 else None)
        assert K <= 16.0  # families stay close to the requested profile

    def test_partial_flag(self):
        # exponents 1/2 cap every probe box at 2 * 8^(1/2) * 8^(1/2) = 16 tubes
        # or fewer; 40 tubes of width 1/8 saturate them (29 fit with seed 4),
        # so the family spends its whole budget of 100 * 40 attempts
        fam, complete = generate_katz_tao_tubes(1 / 8, 0.5, 0.5, 40, seed=4, dim=3)
        assert not complete
        assert len(fam) < 40


# ---------------------------------------------------------------------------
# oracles: test-local copies of the loop-based two-ends and union-volume code


def old_stab_max(lo, hi, alive_intervals):
    if lo.size == 0:
        return 0, 0.0
    events = np.concatenate([np.stack([lo, np.ones_like(lo)], axis=1),
                             np.stack([hi, -np.ones_like(hi)], axis=1)])
    order = np.lexsort((-events[:, 1], events[:, 0]))
    ev = events[order]
    run = np.cumsum(ev[:, 1])
    best, best_t = 0, 0.0
    for (t, _), c in zip(ev, run):
        if c > best and any(l - 1e-12 <= t <= h + 1e-12 for l, h in alive_intervals):
            best, best_t = int(c), float(t)
    return best, best_t


_OLD_KEY_OFF = np.int64(2**20)
_OLD_KEY_W = np.int64(2**21)


def old_lattice_points_in_rect(center, vdir, half_len, half_wid, h):
    perp = np.array([-vdir[1], vdir[0]])
    corners = np.array([center + st * half_len * vdir + sw * half_wid * perp
                        for st in (-1, 1) for sw in (-1, 1)])
    ix = np.arange(int(np.floor(corners[:, 0].min() / h)),
                   int(np.ceil(corners[:, 0].max() / h)) + 1, dtype=np.int64)
    ax = ix * h - center[0]
    ylo = np.full(ix.size, -np.inf)
    yhi = np.full(ix.size, np.inf)
    feasible = np.ones(ix.size, dtype=bool)
    for coef, c0, bound in ((vdir[1], vdir[0], half_len), (perp[1], perp[0], half_wid)):
        off = ax * c0
        if abs(coef) < 1e-15:
            feasible &= np.abs(off) <= bound
            continue
        t1 = (-bound - off) / coef
        t2 = (bound - off) / coef
        ylo = np.maximum(ylo, np.minimum(t1, t2) + center[1])
        yhi = np.minimum(yhi, np.maximum(t1, t2) + center[1])
    iy_lo = np.ceil(ylo / h - 1e-12).astype(np.int64)
    iy_hi = np.floor(yhi / h + 1e-12).astype(np.int64)
    counts = np.where(feasible, np.maximum(iy_hi - iy_lo + 1, 0), 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, 2))
    ix_rep = np.repeat(ix, counts)
    base = np.repeat(np.cumsum(counts) - counts, counts)
    iy_rep = np.repeat(iy_lo, counts) + (np.arange(total) - base)
    pts = np.stack([ix_rep * h, iy_rep * h], axis=1)
    rel = pts - center
    # the axial coordinate summed in coordinate order, as tubes._axial does
    txy = np.stack([rel[:, 0] * vdir[0] + rel[:, 1] * vdir[1], rel @ perp], axis=1)
    return (ix_rep + _OLD_KEY_OFF) * _OLD_KEY_W + (iy_rep + _OLD_KEY_OFF), txy


def old_densify(ids_all):
    ix_min, ix_max = None, None
    iy_min, iy_max = None, None
    for k in ids_all:
        if k.size == 0:
            continue
        ix = k // _OLD_KEY_W
        iy = k - ix * _OLD_KEY_W
        ix_min = int(ix.min()) if ix_min is None else min(ix_min, int(ix.min()))
        ix_max = int(ix.max()) if ix_max is None else max(ix_max, int(ix.max()))
        iy_min = int(iy.min()) if iy_min is None else min(iy_min, int(iy.min()))
        iy_max = int(iy.max()) if iy_max is None else max(iy_max, int(iy.max()))
    if ix_min is None:
        return [np.empty(0, dtype=np.int64) for _ in ids_all], 1
    height = iy_max - iy_min + 1
    dense = []
    for k in ids_all:
        if k.size == 0:
            dense.append(np.empty(0, dtype=np.int64))
            continue
        ix = k // _OLD_KEY_W
        iy = k - ix * _OLD_KEY_W
        dense.append((ix - ix_min) * height + (iy - iy_min))
    size = (ix_max - ix_min + 1) * height
    return dense, int(size)


def old_exact_residual_overlap(tubes, alive_intervals, h):
    ids_all, masks = [], []
    for i, t in enumerate(tubes):
        k, txy = old_lattice_points_in_rect(t.center, t.dir, t.length, t.width, h)
        ti = txy[:, 0]
        mask = np.zeros(ti.size, dtype=bool)
        for lo, hi in alive_intervals[i]:
            mask |= (ti >= lo) & (ti <= hi)
        ids_all.append(k)
        masks.append(mask)
    dense, size = old_densify(ids_all)
    cat = np.concatenate([d[m] for d, m in zip(dense, masks)])
    if cat.size == 0:
        return 0
    counts = np.bincount(cat, minlength=size)
    return int(counts.max())


def old_approx_residual_overlap(tubes, alive_intervals, h):
    candidates = []
    upper = 1
    arr = tubes_mod._TubeArrays(tubes)
    for i, t in enumerate(tubes):
        lo, hi = tubes_mod._crossing_intervals(arr, i, dilate=2.0)
        stab, t_at = old_stab_max(lo, hi, alive_intervals[i])
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
        inside = np.abs(ss) <= t.width
        ok = np.zeros(cand.shape[0], dtype=bool)
        for lo, hi in alive_intervals[i]:
            ok |= (tt >= lo) & (tt <= hi)
        counts += inside & ok
    measured = int(counts.max()) if counts.size else 0
    return measured, max(upper, measured)


def old_merge_picks(picks, delta, span):
    reps = []
    selection = [[] for _ in picks]
    for i, tube_picks in enumerate(picks):
        for (center, vdir) in tube_picks:
            found = None
            for ridx, rep in enumerate(reps):
                if (np.linalg.norm(rep.center - center) < 4.0 * delta
                        and direction_distance(rep.dir, vdir) < 4.0 * delta / span):
                    found = ridx
                    break
            if found is None:
                reps.append(Tube2D(center, vdir, 8.0 * delta, span))
                found = len(reps) - 1
            if found not in selection[i]:
                selection[i].append(found)
    return reps, selection


def old_two_ends_decompose(tubes, delta, span, rich_constant=4.0):
    _subtract_windows = tubes_mod._subtract_windows
    n = len(tubes)
    h = delta / 10.0
    r = rich_constant * span**-2 * np.sqrt(n)
    max_rounds = int(np.ceil(3.0 * np.log(1.0 / delta) / np.log(2.0 / span)))
    est_cells = sum(16 * t.length * t.width / h**2 + 8 * t.length / h for t in tubes)
    exact = est_cells <= 4e7
    excised = [[] for _ in range(n)]
    picks = [[] for _ in range(n)]
    rounds_run = 0
    if r <= n:
        if exact:
            ids_all, t_all = [], []
            for i, t in enumerate(tubes):
                k, txy = old_lattice_points_in_rect(t.center, t.dir,
                                                    2.0 * t.length, 2.0 * t.width, h)
                ids_all.append(k)
                t_all.append(txy[:, 0])
            dense, size = old_densify(ids_all)
            for rounds_run in range(1, max_rounds + 1):
                alive_ids = []
                alive_masks = []
                for i in range(n):
                    ti = t_all[i]
                    mask = np.ones(ti.size, dtype=bool)
                    for lo, hi in excised[i]:
                        mask &= ~((ti >= lo) & (ti <= hi))
                    alive_masks.append(mask)
                    alive_ids.append(dense[i][mask])
                mult = np.bincount(np.concatenate(alive_ids), minlength=size)
                richmask = mult >= r
                if not richmask.any():
                    rounds_run -= 1
                    break
                new_any = False
                for i in range(n):
                    sel = alive_masks[i] & richmask[dense[i]]
                    ti = t_all[i][sel]
                    if ti.size == 0:
                        continue
                    win = span / 4.0
                    bins = np.arange(-2 * tubes[i].length, 2 * tubes[i].length + delta, delta)
                    histo, _ = np.histogram(ti, bins=bins)
                    width_bins = max(1, int(round(win / delta)))
                    csum = np.concatenate([[0], np.cumsum(histo)])
                    sums = csum[width_bins:] - csum[:-width_bins]
                    g = int(np.argmax(sums))
                    if sums[g] == 0:
                        continue
                    tc = bins[g] + win / 2.0
                    excised[i].append((tc - span / 4.0, tc + span / 4.0))
                    picks[i].append((tubes[i].center + tc * tubes[i].dir, tubes[i].dir))
                    new_any = True
                if not new_any:
                    break
        else:
            arr = tubes_mod._TubeArrays(tubes)
            for rounds_run in range(1, max_rounds + 1):
                new_any = False
                for i in range(n):
                    lo, hi = tubes_mod._crossing_intervals(arr, i, dilate=4.0)
                    alive = _subtract_windows([(-2 * tubes[i].length, 2 * tubes[i].length)],
                                              excised[i])
                    stab, t_at = old_stab_max(lo, hi, alive)
                    if stab + 1 < r:
                        continue
                    excised[i].append((t_at - span / 4.0, t_at + span / 4.0))
                    picks[i].append((tubes[i].center + t_at * tubes[i].dir, tubes[i].dir))
                    new_any = True
                if not new_any:
                    rounds_run -= 1
                    break
    reps, selection = old_merge_picks(picks, delta, span)
    final_alive = []
    for i, t in enumerate(tubes):
        windows = []
        for ridx in selection[i]:
            rep = reps[ridx]
            tc = float((rep.center - t.center) @ t.dir)
            windows.append((tc - span / 2.0, tc + span / 2.0))
        final_alive.append(_subtract_windows([(-t.length, t.length)], windows))
    if exact:
        measured = old_exact_residual_overlap(tubes, final_alive, h)
        upper = measured
    else:
        measured, upper = old_approx_residual_overlap(tubes, final_alive, h)
    return TwoEndsResult(tubes_out=tuple(reps),
                         selection=tuple(tuple(s) for s in selection),
                         overlap_measured=int(measured), overlap_upper=int(upper),
                         rich_threshold=float(r), rounds_run=rounds_run,
                         delta=delta, span=span,
                         n_tubes=n, exact_net=exact)


def old_shading_union_volume(tubes, shading, resolution):
    dim = tubes[0].center.shape[0]
    occupied = set()
    for t, ivs in zip(tubes, shading.intervals):
        perp_frame = complete_frame(t.dir)[:-1]
        for lo, hi in ivs:
            mid_t = (lo + hi) / 2.0
            half_t = (hi - lo) / 2.0
            center = t.center + mid_t * t.dir
            span = np.abs(t.dir) * half_t + np.abs(perp_frame).sum(axis=0) * t.width / 2.0
            lo_idx = np.floor((center - span) / resolution).astype(int) - 1
            hi_idx = np.ceil((center + span) / resolution).astype(int) + 1
            axes = [np.arange(lo_idx[a], hi_idx[a] + 1) for a in range(dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            cells = np.stack([m.ravel() for m in mesh], axis=1)
            pts = (cells + 0.5) * resolution
            rel = pts - center
            tt = rel @ t.dir
            if dim == 2:
                ss = np.abs(rel @ perp_frame[0])
            else:
                ss = np.sqrt(np.maximum((rel**2).sum(axis=1) - tt**2, 0.0))
            inside = (np.abs(tt) <= half_t) & (ss <= t.width / 2.0)
            for cell in map(tuple, cells[inside]):
                occupied.add(cell)
    return len(occupied) * resolution**dim


def _same_result(a, b):
    for f in dataclasses.fields(TwoEndsResult):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestStabMaxOracle:
    @staticmethod
    def _intervals(rng, m):
        # times on a coarse grid so that many events tie
        lo = rng.integers(-8, 8, m) / 4.0
        return lo, lo + rng.integers(0, 6, m) / 4.0

    def test_random_alive_sets(self, rng):
        for _ in range(400):
            lo, hi = self._intervals(rng, int(rng.integers(1, 30)))
            k = int(rng.integers(0, 4))
            edges = np.sort(rng.uniform(-3, 3, 2 * k))
            alive = [(float(a), float(b)) for a, b in edges.reshape(-1, 2)]
            assert tubes_mod._stab_max(lo, hi, alive) == old_stab_max(lo, hi, alive)

    @pytest.mark.parametrize("eps", [-2e-12, -1e-12, 0.0, 1e-12, 2e-12])
    def test_events_on_alive_edges(self, rng, eps):
        for _ in range(200):
            lo, hi = self._intervals(rng, int(rng.integers(1, 20)))
            times = np.concatenate([lo, hi])
            a, b = np.sort(rng.choice(times, 2))
            for alive in ([(a + eps, b - eps)], [(a - eps, b + eps)],
                          [(a + eps, a + eps), (b - eps, b + eps)]):
                assert tubes_mod._stab_max(lo, hi, alive) == old_stab_max(lo, hi, alive)

    def test_empty_and_dead(self, rng):
        lo, hi = self._intervals(rng, 12)
        for alive in ([], [(10.0, 11.0)], [(-11.0, -10.0), (9.0, 9.5)]):
            assert tubes_mod._stab_max(lo, hi, alive) == old_stab_max(lo, hi, alive) \
                == (0, 0.0)
        empty = np.empty(0)
        assert tubes_mod._stab_max(empty, empty, [(-1.0, 1.0)]) == (0, 0.0)

    def test_only_dead_events_carry_the_maximum(self):
        # the global maximum sits outside the alive set; the alive maximum wins
        lo, hi = np.array([0.0, 0.1, 0.2, 1.0]), np.array([0.5, 0.6, 0.7, 2.0])
        alive = [(0.8, 1.5)]
        assert tubes_mod._stab_max(lo, hi, alive) == old_stab_max(lo, hi, alive) == (1, 1.0)


class TestTwoEndsOracle:
    @pytest.mark.parametrize("tubes, delta, span, rc", [
        (pencil(48, 2**-6), 2**-6, 0.25, 0.1),
        (random_tubes(40, 2**-5, seed=3), 2**-5, 0.25, 0.05),
        (random_tubes(80, 2**-6, seed=2), 2**-6, 0.25, 0.03),
        (grid(12, 2**-5), 2**-5, 0.25, 0.05),
    ])
    def test_exact_net_equals_loop(self, tubes, delta, span, rc):
        new = two_ends_decompose(tubes, delta, span, rich_constant=rc)
        old = old_two_ends_decompose(tubes, delta, span, rich_constant=rc)
        assert new.exact_net and new.rounds_run >= 2
        _same_result(new, old)

    @pytest.mark.parametrize("tubes, delta, span, rc", [
        (pencil(250, 2**-8), 2**-8, 0.125, 0.05),
        (random_tubes(300, 2**-8, seed=1), 2**-8, 0.125, 0.01),
    ])
    def test_approx_net_equals_loop(self, tubes, delta, span, rc):
        new = two_ends_decompose(tubes, delta, span, rich_constant=rc)
        old = old_two_ends_decompose(tubes, delta, span, rich_constant=rc)
        assert not new.exact_net and new.rounds_run >= 2
        _same_result(new, old)

    def test_approx_crossings_once_per_tube(self, monkeypatch):
        # one dilate-4 crossing set per tube for all rounds, one dilate-2 set
        # per tube for the residual
        calls = []
        inner = tubes_mod._crossing_intervals
        monkeypatch.setattr(tubes_mod, "_crossing_intervals",
                            lambda arr, i, dilate=2.0: calls.append(dilate) or inner(arr, i, dilate))
        res = two_ends_decompose(pencil(250, 2**-8), 2**-8, 0.125, rich_constant=0.05)
        assert not res.exact_net and res.rounds_run >= 2
        assert sorted(calls) == [2.0] * 250 + [4.0] * 250

    def test_no_rounds_equals_loop(self):
        tubes = random_tubes(120, 2**-7, seed=5)
        new = two_ends_decompose(tubes, 2**-7, 2**-3)
        assert new.rounds_run == 0
        _same_result(new, old_two_ends_decompose(tubes, 2**-7, 2**-3))

    @pytest.mark.parametrize("tubes", [
        pencil(48, 2**-6),
        [Tube2D([0.5, 0.5], [0, 1], 2**-6, 1.0), Tube2D([0.3, 0.7], [1, 0], 2**-6, 0.5),
         Tube2D([-1.0, 1.5], [1, 1e-16], 2**-6, 1.0)],
    ])
    @pytest.mark.parametrize("dilate", [1.0, 2.0])
    def test_lattice_net_equals_packed_keys(self, tubes, dilate):
        # the ids encode the partition of the packed keys: equal points get
        # equal ids, different points different ones, numbered 0..size
        h = 2**-6 / 10.0
        spans, at, _ = tubes_mod._lattice_net(tubes, dilate, h)
        size = at[-1]
        ids, t_ax = (np.concatenate(a) for a in zip(*net_points(tubes, spans, h)))
        keys, ts = zip(*(old_lattice_points_in_rect(t.center, t.dir, dilate * t.length,
                                                    dilate * t.width, h) for t in tubes))
        assert ids.shape == np.concatenate(keys).shape
        assert np.array_equal(t_ax, np.concatenate([t[:, 0] for t in ts]))
        # the coordinate-order sum moves the BLAS product's last bits at most
        # within 4 eps (|x d0| + |y d1|)
        for t, k, t_new in zip(tubes, keys, ts):
            ix, iy = np.divmod(k, _OLD_KEY_W) - _OLD_KEY_OFF
            rel = np.stack([ix * h, iy * h], axis=1) - t.center
            bound = 4 * np.finfo(float).eps * np.abs(rel * t.dir).sum(axis=1)
            assert np.all(np.abs(t_new[:, 0] - rel @ t.dir) <= bound)
        keys = np.concatenate(keys)
        distinct = np.unique(keys).size
        assert size == distinct
        assert np.array_equal(np.unique(ids), np.arange(size))
        assert np.unique(np.stack([keys, ids], axis=1), axis=0).shape[0] == distinct

    def test_merge_equals_scan_at_thresholds(self, rng):
        delta, span = 2**-7, 0.125
        rc, rd = 4.0 * delta, 4.0 * delta / span
        base = [Tube2D(rng.uniform(0.3, 0.7, 2), rng.normal(size=2), delta, 1.0)
                for _ in range(6)]
        picks = []
        for _ in range(40):
            b = base[int(rng.integers(len(base)))]
            rho = rc * rng.choice([1 - 1e-15, 1.0, 1 + 1e-15, rng.uniform(0.3, 1.7)])
            phi = rng.uniform(0, 2 * np.pi)
            theta = 2 * np.arcsin(rd / 2) * rng.choice([1 - 1e-15, 1.0, 1 + 1e-15,
                                                        rng.uniform(0.3, 1.7)])
            ang = np.arctan2(b.dir[1], b.dir[0]) + rng.choice([-1, 1]) * theta \
                + rng.choice([0.0, np.pi])
            tube = Tube2D(b.center + rho * np.array([np.cos(phi), np.sin(phi)]),
                          [np.cos(ang), np.sin(ang)], delta, 1.0)
            picks.append([(tube.center, tube.dir)] * int(rng.integers(0, 3)))
        reps, selection = tubes_mod._merge_picks(picks, delta, span)
        old_reps, old_selection = old_merge_picks(picks, delta, span)
        assert reps == old_reps and selection == old_selection
        assert len(reps) < sum(len(p) for p in picks)


# centres i + j + 1 = 45 cells along (1, 1) sit on the window's end at res 2^-6
TIE = Tube2D([0.5, 0.5], [1, 1], 2**-4, 90 * 2**-6 / np.sqrt(2))


class TestUnionVolumeOracle:
    @pytest.mark.parametrize("dim, delta, seed", [(2, 2**-5, 3), (3, 2**-4, 5), (3, 2**-3, 7)])
    @pytest.mark.parametrize("density", [None, 0.5, 0.2])
    def test_equals_set_of_cells(self, dim, delta, seed, density):
        tubes, _ = generate_katz_tao_tubes(delta, 1.0, 1.0, 12, seed=seed, dim=dim)
        tubes += [(Tube3D if dim == 3 else Tube2D)(tubes[0].center, np.eye(dim)[0],
                                                     delta, 0.5)]
        shading = Shading.full(tubes) if density is None else \
            Shading.random_fraction(tubes, density, seed=seed)
        for res in (delta / 4.0, delta / 6.0):
            assert shading_union_volume(tubes, shading, res) == \
                old_shading_union_volume(tubes, shading, res)

    def test_empty_shading(self):
        tubes = [Tube2D([0.5, 0.5], [1, 0], 0.1, 1.0)]
        assert shading_union_volume(tubes, Shading(tubes, [[]]), 0.025) == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_column_cells_equal_box_cells(self, rng, dim):
        res = 2**-6
        Tube = Tube3D if dim == 3 else Tube2D
        windows = []
        for _ in range(40):
            t = Tube(rng.uniform(0.3, 0.7, dim), rng.normal(size=dim), 2**-4,
                     rng.uniform(0.0625, 1.0))
            lo = rng.uniform(-t.length / 2, 0.0)
            windows.append((t, lo, rng.uniform(lo, t.length / 2)))
        # dyadic centres, integer directions and dyadic windows put cell
        # centres within a rounding of the window's boundary
        while len(windows) < 80:
            v = rng.integers(-3, 4, dim)
            if np.count_nonzero(v) >= 2:
                t = Tube(rng.integers(16, 48, dim) / 64, v, 2**-4, 1.0)
                lo = int(rng.integers(-32, 0)) / 64
                windows.append((t, lo, lo + int(rng.integers(1, 32)) / 64))
        if dim == 2:
            windows.append((TIE, -TIE.length / 2, TIE.length / 2))
        for t, lo, hi in windows:
            window, box = tubes_mod._window(t, lo, hi, res)
            cols = tubes_mod._column_cells(*window, box, res)
            assert cols is not None
            assert sorted(map(tuple, cols)) == \
                sorted(map(tuple, tubes_mod._box_cells(*window, box, res)))

    def test_boundary_ties_and_axis_tubes_use_the_box(self):
        # a tube within 1e-3 rad of a lattice axis takes the box; the tie
        # tube's columns decide its boundary cells as the box does
        res = 2**-6
        axis = Tube3D([0.5, 0.5, 0.5], [1e-4, 1, 0], 2**-4, 1.0)
        for t in (TIE, axis):
            window, box = tubes_mod._window(t, -t.length / 2, t.length / 2, res)
            cols = tubes_mod._column_cells(*window, box, res)
            if t is axis:
                assert cols is None
            else:
                assert sorted(map(tuple, cols)) == \
                    sorted(map(tuple, tubes_mod._box_cells(*window, box, res)))
            shading = Shading.full([t])
            assert shading_union_volume([t], shading, res) == \
                old_shading_union_volume([t], shading, res) > 0


class TestTwoEndsValidation:
    @pytest.mark.parametrize("rc", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_bad_rich_constant(self, rc):
        with pytest.raises(ValueError, match="rich_constant"):
            two_ends_decompose(pencil(8, 2**-6), 2**-6, 0.25, rich_constant=rc)

    def test_spatial_tubes_rejected(self):
        tubes = random_tubes(5, 2**-6, seed=0, dim=3)
        with pytest.raises(ValueError, match="planar"):
            two_ends_decompose(tubes, 2**-6, 0.25)


def test_exact_two_ends_memory_bound():
    # the per-round rebuild peaked at 334 MB, flat arrays with one count per
    # bounding-box cell at about 145 MB; the tube-by-tube bound is below
    tubes = pencil(48, 2**-6)
    tracemalloc.start()
    try:
        res = two_ends_decompose(tubes, 2**-6, 0.25, rich_constant=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact_net and res.rounds_run >= 1
    assert peak < 200 * 2**20


def _two_ends_peak(tubes, delta, span, **kw):
    tracemalloc.start()
    try:
        res = two_ends_decompose(tubes, delta, span, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


def _corner_tubes(delta):
    return [Tube2D([-1.5, -1.5], [1, 0], delta, 1.0), Tube2D([1.5, 1.5], [0, 1], delta, 1.0)]


def test_exact_two_ends_streams_the_pencil():
    # one tube's points at a time and one narrow count per distinct point of
    # the net: about 10 MB, where a count per bounding-box cell took 144 MB
    res, peak = _two_ends_peak(pencil(48, 2**-6), 2**-6, 0.25, rich_constant=0.1)
    assert res.exact_net and res.rounds_run >= 1
    assert peak < 32 * 2**20


def test_exact_two_ends_counts_only_occupied_points():
    # two tubes in opposite corners: a count per bounding-box cell of the
    # delta/10 net took 807 MB, the occupied points about 7 MB
    res, peak = _two_ends_peak(_corner_tubes(2**-8), 2**-8, 0.25)
    assert res.exact_net and res.rounds_run == 0
    assert peak < 32 * 2**20


def test_exact_two_ends_corner_tubes_equal_loop():
    tubes = _corner_tubes(2**-6)
    new = two_ends_decompose(tubes, 2**-6, 0.25, rich_constant=0.01)
    assert new.exact_net and new.rounds_run >= 1
    _same_result(new, old_two_ends_decompose(tubes, 2**-6, 0.25, rich_constant=0.01))


def _abutting_tubes(delta):
    """Two vertical tubes on one column line, the upper one's 2T opening at
    the lattice row just above the lower one's."""
    h = delta / 10.0
    return [Tube2D([0.5, 0.25], [0, 1], delta, 0.25),
            Tube2D([0.5, 0.5 + round(0.75 / h + 1) * h], [0, 1], delta, 0.25)]


def _rich_runs(at, cover, r):
    # the candidates of `_excise_exact`: the runs of ids whose cover is >= r
    rich = cover >= r
    lengths = np.diff(at)[rich]
    return _ranges(at[:-1][rich], lengths), np.repeat(cover[rich], lengths)


def test_exact_two_ends_on_tubes_shorter_than_a_window():
    # at delta = 2^-6 each tube's histogram np.arange(-2 l, 2 l + delta,
    # delta) held one bin, fewer than the span / 4 window's 4, and the
    # window sums raised "attempt to get argmax of an empty sequence"
    rng = np.random.default_rng(1)
    tubes = [Tube2D(rng.uniform(0.2, 0.8, 2), rng.normal(size=2), 1e-4, 1e-3)
             for _ in range(30)]
    res = two_ends_decompose(tubes, 2**-6, 0.25, rich_constant=0.001)
    assert res.exact_net and res.rounds_run >= 1 and len(res.tubes_out) >= 1


class TestRichPointCoverage:
    @pytest.mark.parametrize("tubes, delta", [
        (pencil(48, 2**-6), 2**-6),
        (random_tubes(40, 2**-5, seed=3), 2**-5),
        (random_tubes(80, 2**-6, seed=2), 2**-6),
        (grid(12, 2**-5), 2**-5),
        (_corner_tubes(2**-6), 2**-6),
        (_abutting_tubes(2**-5), 2**-5),
    ])
    def test_span_coverage_equals_bincount(self, tubes, delta, monkeypatch):
        # the candidates and multiplicities of the running sum over the span
        # ends equal a count per point over every id of the net, at a
        # threshold that some multiplicity equals, one half below the largest
        # and one above all of them; `_excise_exact` takes the axial
        # coordinates of those candidates alone
        spans, at, cover = tubes_mod._lattice_net(tubes, 2.0, delta / 10.0)
        points = list(net_points(tubes, spans, delta / 10.0))
        mult = np.bincount(np.concatenate([ids for ids, _ in points]))
        assert at[-1] == mult.size and np.all(np.diff(at) >= 0)
        assert np.array_equal(np.repeat(cover, np.diff(at)), mult)
        levels = np.unique(mult)
        assert levels[0] >= 1
        top = int(levels[-1])
        inner, seen = tubes_mod._axial, []
        monkeypatch.setattr(tubes_mod, "_axial", lambda *a: seen.append(inner(*a)) or seen[-1])
        for r in (int(levels[levels.size // 2]), top - 0.5, top + 1):
            cand, got = _rich_runs(at, cover, r)
            want = np.flatnonzero(mult >= r)
            assert np.array_equal(cand, want) and np.array_equal(got, mult[want])
            assert (cand.size == 0) == (r > top)
            seen.clear()
            assert tubes_mod._excise_exact(tubes, delta, 0.25, r, 0, [[] for _ in tubes]) == 0
            assert len(seen) == len(tubes)
            for got_ax, (ids, ax) in zip(seen, points):
                assert np.array_equal(got_ax, ax[mult[ids] >= r])
        picks = [[] for _ in tubes]
        assert tubes_mod._excise_exact(tubes, delta, 0.25, top + 1, 6, picks) == 0
        assert picks == [[] for _ in tubes]

    def test_abutting_spans_leave_an_empty_run_above_every_multiplicity(self):
        # in one column the upper tube's span opens at the id where the lower
        # one's closes; the opening sorts first, so the cover of the empty
        # run between the two ends exceeds every multiplicity, and
        # test_span_coverage_equals_bincount checks on this family that no
        # candidate comes from it
        delta = 2**-5
        tubes = _abutting_tubes(delta)
        spans, at, cover = tubes_mod._lattice_net(tubes, 2.0, delta / 10.0)
        (ix0, _, c0, f0), (ix1, _, _, f1) = spans
        closes, opens = dict(zip(ix0.tolist(), f0 + c0)), dict(zip(ix1.tolist(), f1))
        assert any(closes[x] == opens[x] for x in closes.keys() & opens.keys())
        empty = np.diff(at) == 0
        top = int(cover[~empty].max())
        assert np.any(empty & (cover > top))
