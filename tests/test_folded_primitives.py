"""Oracles for the shared box counter, greedy net and dyadic scale ladder.

Each `old_*` function below is a test-local copy of a code path that the
package now routes through one shared primitive: the 3D tube box counter and
the generator's box probe (now `concentration._box_counts` at the
half-extents of `concentration._box_halves`, in 2D and 3D), the 2D
segment counter's own slab loop (now `geometry._chords_from_local`), the three
greedy nets that grew their centres with `np.vstack` and compared each member
with every kept row (now the pair-based `geometry._greedy_net_size`) and the
hand-written scale loops of the ladder
callers (now `dyadic_ladder` / `dyadic_pairs`).  The new code must return
exactly what the copies return, compared with `==`.
"""

import tracemalloc

import numpy as np
import pytest

from heilbronn import concentration, geometry, incidence, tubes as tubes_mod
from heilbronn.concentration import (
    _box_candidates,
    dyadic_ladder,
    dyadic_pairs,
    katz_tao_fit,
    plane_reduction_check,
    uniformize,
)
from heilbronn.configurations import (
    generate_bush,
    generate_plane_example,
    generate_vertical,
    rescale_config,
)
from heilbronn.geometry import (
    Line,
    _chords_from_local,
    complete_frame,
    covering_number,
    direction_covering_number,
    line_covering_number,
)
from heilbronn.tubes import (
    Tube2D,
    Tube3D,
    generate_katz_tao_tubes,
    measure_kt_constant,
    tube_box_counts_3d,
)

from conftest import box_counts, line_metric_many, line_metric_rows, random_config, \
    random_lines, separated_config

# ---------------------------------------------------------------------------
# test-local copies of the replaced code


def old_tube_box_counts_3d(tubes, scales):
    centers = np.array([t.center for t in tubes])
    dirs = np.array([t.dir for t in tubes])
    lengths = np.array([t.length for t in tubes])
    best = [0] * len(scales)
    for center, frame in zip(*_box_candidates(centers, dirs)):
        B = (centers - center) @ frame.T
        V = dirs @ frame.T
        for s, (u, w) in enumerate(scales):
            half = np.array([[u / 2.0, w / 2.0, 0.5]])
            chords = _chords_from_local(B, V, half)[0]
            cnt = int(np.count_nonzero(np.minimum(chords, lengths) >= lengths / 2.0))
            if cnt > best[s]:
                best[s] = cnt
    return best


def old_probe_count_3d(centers, dirs, lengths, cand_center, cand_dir, u, w):
    frame = complete_frame(cand_dir)
    B = (centers - cand_center) @ frame.T
    V = dirs @ frame.T
    half = np.array([[u / 2.0, w / 2.0, 0.5]])
    chords = _chords_from_local(B, V, half)[0]
    return int(np.count_nonzero(np.minimum(chords, lengths) >= lengths / 2.0))


def old_segment_rect_counts(centers, dirs, lengths, rect_center, rect_dir, w, rect_len):
    e2 = np.array([-rect_dir[1], rect_dir[0]])
    frame = np.vstack([e2, rect_dir])
    B = (centers - rect_center) @ frame.T
    V = dirs @ frame.T
    half = np.array([w / 2.0, rect_len / 2.0])
    tmin = np.full(B.shape[0], -np.inf)
    tmax = np.full(B.shape[0], np.inf)
    alive = np.ones(B.shape[0], dtype=bool)
    for i in range(2):
        v = V[:, i]
        b = B[:, i]
        par = np.abs(v) < 1e-14
        alive &= ~(par & (np.abs(b) > half[i]))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half[i] - b) / v
            t2 = (half[i] - b) / v
        lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
        upd = ~par
        tmin = np.where(upd, np.maximum(tmin, lo), tmin)
        tmax = np.where(upd, np.minimum(tmax, hi), tmax)
    if lengths is None:
        chord = np.where(alive, np.clip(tmax - tmin, 0.0, None), 0.0)
        return int(np.count_nonzero(chord >= 0.5))
    lo = np.maximum(tmin, -lengths / 2.0)
    hi = np.minimum(tmax, lengths / 2.0)
    chord = np.where(alive, np.clip(hi - lo, 0.0, None), 0.0)
    return int(np.count_nonzero(chord >= lengths / 2.0))


def old_generate_katz_tao_tubes(delta, t1, t2, count, seed=0, dim=3, cap_constant=2.0):
    rng = np.random.default_rng(seed)
    scales = []
    w = 2 * delta
    while w <= 1.0 + 1e-9:
        if dim == 3:
            u = delta
            while u <= w + 1e-9:
                scales.append((min(u, 1.0), min(w, 1.0)))
                u *= 2.0
        else:
            scales.append((min(w, 1.0), 1.0))
        w *= 2.0
    scales = sorted(set(scales))
    tubes = []
    attempts = 0
    tube_cls = Tube3D if dim == 3 else Tube2D
    while len(tubes) < count and attempts < 100 * count:
        attempts += 1
        center = rng.uniform(0.2, 0.8, size=dim)
        vdir = rng.normal(size=dim)
        cand = tube_cls(center, vdir, delta, 1.0)
        ok = True
        members = tubes + [cand]
        centers = np.array([t.center for t in members])
        dirs = np.array([t.dir for t in members])
        lengths = np.array([t.length for t in members])
        for (u, w) in scales:
            if dim == 3:
                cap = cap_constant * (u / delta) ** t1 * (w / delta) ** t2
                got = old_probe_count_3d(centers, dirs, lengths, cand.center, cand.dir, u, w)
            else:
                cap = cap_constant * (u / delta) ** t1
                got = old_segment_rect_counts(centers, dirs, lengths, cand.center,
                                              cand.dir, u, 1.0)
            if got > cap:
                ok = False
                break
        if ok:
            tubes.append(cand)
    return tubes, len(tubes) == count


def old_covering_number(items, w):
    A = np.asarray(items, dtype=float)
    if A.size == 0:
        return 0
    centers = np.empty((0, A.shape[1]))
    for x in A:
        if centers.shape[0] == 0 or np.min(np.linalg.norm(centers - x, axis=1)) >= w:
            centers = np.vstack([centers, x])
    return centers.shape[0]


def old_direction_covering_number(dirs, w):
    D = np.asarray(dirs, dtype=float)
    if D.size == 0:
        return 0
    centers = np.empty((0, D.shape[1]))
    for v in D:
        if centers.shape[0] == 0:
            centers = np.vstack([centers, v])
            continue
        dist = np.minimum(np.linalg.norm(centers - v, axis=1),
                          np.linalg.norm(centers + v, axis=1))
        if np.min(dist) >= w:
            centers = np.vstack([centers, v])
    return centers.shape[0]


def old_line_covering_number(lines, w):
    lines = list(lines)
    if not lines:
        return 0
    kept = []
    kb = np.empty((0, lines[0].dim))
    kd = np.empty((0, lines[0].dim))
    for ln in lines:
        if kept:
            if np.min(line_metric_many(ln, kb, kd)) < w:
                continue
        kept.append(ln)
        kb = np.vstack([kb, ln.base])
        kd = np.vstack([kd, ln.dir])
    return len(kept)


def old_greedy_net_size(X, w, dist):
    """The per-member loop the nets ran before they went pair-based: a NaN
    distance blocks (`np.min(...) >= w`), where old_line_covering_number's
    `< w` keeps the row."""
    kept = np.empty_like(X)
    k = 0
    for x in X:
        if k == 0 or np.min(dist(kept[:k], x)) >= w:
            kept[k] = x
            k += 1
    return k


def scan_line_covering_number(lines, w):
    X = np.array([(ln.base, ln.dir) for ln in lines], dtype=float)
    return old_greedy_net_size(X, w, lambda C, x: line_metric_rows(x[0], x[1], C[:, 0], C[:, 1]))


def old_ladder(start, factor=2.0):
    out = []
    w = start
    while w <= 1.0 + 1e-9:
        out.append(w)
        w *= factor
    return out


def old_pairs(u0, w0, factor=2.0, keep=lambda u, w: True):
    pairs = []
    w = w0
    while w <= 1.0 + 1e-9:
        u = u0
        while u <= w + 1e-9:
            if keep(u, w):
                pairs.append((min(u, 1.0), min(w, 1.0)))
            u *= factor
        w *= factor
    return pairs


# ---------------------------------------------------------------------------
# families


def tube_family(n, dim, seed, unit=True):
    rng = np.random.default_rng(seed)
    cls = Tube3D if dim == 3 else Tube2D
    return [cls(rng.uniform(0.2, 0.8, dim), rng.normal(size=dim), 1 / 32,
                1.0 if unit else float(rng.uniform(0.1, 1.2))) for _ in range(n)]


def tie_tubes(dim):
    """Axis-parallel tubes on a lattice, lengths a power of two: many members
    are parallel to a box axis, sit exactly on a box face, or have a chord of
    exactly half their length."""
    out = []
    cls = Tube3D if dim == 3 else Tube2D
    for k in range(24):
        axis = np.zeros(dim)
        axis[k % dim] = 1.0
        center = 0.25 + 0.125 * np.array([(k * (a + 1)) % 5 for a in range(dim)])
        out.append(cls(center, axis, 1 / 32, [0.25, 0.5, 1.0][k % 3]))
    return out


def arrays(tubes):
    return (np.array([t.center for t in tubes]), np.array([t.dir for t in tubes]),
            np.array([t.length for t in tubes]))


SCALES_3D = [(1 / 16, 1 / 16), (1 / 16, 1 / 4), (1 / 8, 1 / 2), (1 / 4, 1.0), (1.0, 1.0)]


# ---------------------------------------------------------------------------
# box counter


class TestBoxCounter:
    @pytest.mark.parametrize("seed,unit", [(0, True), (1, False), (2, False), (3, True)])
    def test_tube_box_counts_equal_old(self, seed, unit):
        fam = tube_family(30, 3, seed, unit)
        assert tube_box_counts_3d(fam, SCALES_3D) == old_tube_box_counts_3d(fam, SCALES_3D)

    def test_tube_box_counts_equal_old_ties(self):
        fam = tie_tubes(3)
        got = tube_box_counts_3d(fam, SCALES_3D)
        assert got == old_tube_box_counts_3d(fam, SCALES_3D)
        assert max(got) > 1

    def test_empty_family_counts_zero(self):
        assert tube_box_counts_3d([], SCALES_3D) == [0] * len(SCALES_3D)

    @pytest.mark.parametrize("fam", [tube_family(25, 3, 4, unit=False),
                                     tube_family(25, 3, 5), tie_tubes(3)])
    def test_probe_equals_old(self, fam):
        centers, dirs, lengths = arrays(fam)
        for t in fam[:8]:
            got = box_counts(centers, dirs, lengths, t.center[None],
                             complete_frame(t.dir)[None], SCALES_3D)[0].tolist()
            assert got == [old_probe_count_3d(centers, dirs, lengths, t.center, t.dir, u, w)
                           for u, w in SCALES_3D]

    @pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_generate_equals_old(self, dim, seed):
        delta = 1 / 16 if dim == 2 else 1 / 8
        new = generate_katz_tao_tubes(delta, 0.5, 1.0, 14, seed=seed, dim=dim)
        old = old_generate_katz_tao_tubes(delta, 0.5, 1.0, 14, seed=seed, dim=dim)
        assert new[1] == old[1]
        assert [(tuple(t.center), tuple(t.dir)) for t in new[0]] == \
            [(tuple(t.center), tuple(t.dir)) for t in old[0]]

    @pytest.mark.parametrize("fam", [tube_family(30, 2, 6), tube_family(30, 2, 7, unit=False),
                                     tie_tubes(2)])
    @pytest.mark.parametrize("as_lines", [False, True])
    def test_segment_rect_counts_equal_old(self, fam, as_lines):
        centers, dirs, lengths = arrays(fam)
        lengths = None if as_lines else lengths
        rng = np.random.default_rng(8)
        rects = [(t.center, t.dir) for t in fam[:10]]
        rects += [(rng.uniform(0, 1, 2), d) for d in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8])]
        widths = [1 / 64, 1 / 8, 0.25, 0.5, 1.0]
        rc = np.array([c for c, _ in rects])
        rd = np.array([d for _, d in rects], dtype=float)
        frames = np.array([complete_frame(v) for v in rd])
        got = box_counts(centers, dirs, lengths, rc, frames, [(w, w) for w in widths])
        assert got.tolist() == [[old_segment_rect_counts(centers, dirs, lengths, c, d, w, 1.0)
                                 for w in widths] for c, d in zip(rc, rd)]

    def test_segment_reach_bounds_the_chord(self):
        # a horizontal unit rectangle at the origin; a segment of length 0.5
        # lying along it has chord 0.5 (its length), a line has chord 1
        B = np.array([[0.0, 0.0]])
        V = np.array([[0.0, 1.0]])
        half = np.array([[0.1, 0.5]])
        assert _chords_from_local(B, V, half)[0, 0] == 1.0
        assert _chords_from_local(B, V, half, np.array([0.25]))[0, 0] == 0.5


class TestKatzTaoLengths:
    def test_measured_at_least_tube_box_counts(self, tmp_path):
        # tubes of length 0.4: the sweep has the candidates of
        # tube_box_counts_3d plus subdivision children, so it never reports less
        from heilbronn.cli import main
        from heilbronn.formats import write_tubes

        rng = np.random.default_rng(9)
        fam = [Tube3D(rng.uniform(0.3, 0.7, 3), rng.normal(size=3), 1 / 16, 0.4)
               for _ in range(40)]
        path = str(tmp_path / "short.tubes")
        out = str(tmp_path / "kt.csv")
        write_tubes(path, fam)
        assert main(["katz-tao", "-p", path, "--delta", "0.0625", "-o", out]) == 0
        rows = [ln.split(",") for ln in open(out).read().splitlines()
                if ln and not ln.startswith("#")][1:]
        scales = [(float(u), float(w)) for u, w, _, _ in rows]
        measured = [int(m) for _, _, m, _ in rows]
        reference = tube_box_counts_3d(fam, scales)
        assert all(m >= r for m, r in zip(measured, reference))
        assert sum(reference) > len(reference)

    def test_unit_lengths_equal_lines(self):
        fam = tube_family(20, 3, 10)
        centers, dirs, lengths = arrays(fam)
        with_lengths = katz_tao_fit((centers, dirs, lengths), 1 / 8)
        as_lines = katz_tao_fit((centers, dirs), 1 / 8)
        assert with_lengths == as_lines

    def test_2d_line_list_fits(self):
        lines = random_lines(20, 2, seed=11)
        fit = katz_tao_fit(lines, 1 / 16)
        bases = np.array([ln.base for ln in lines])
        dirs = np.array([ln.dir for ln in lines])
        assert fit == katz_tao_fit((bases, dirs, None), 1 / 16)


# ---------------------------------------------------------------------------
# greedy nets


def tie_points(dim):
    """Lattice points with spacing 1/8, shuffled, with repeats: many
    distances equal the covering scale exactly."""
    g = np.arange(5) / 8.0
    P = np.array(np.meshgrid(*([g] * dim), indexing="ij")).reshape(dim, -1).T
    P = np.concatenate([P, P[::3]])
    return P[np.random.default_rng(12).permutation(len(P))]


class TestGreedyNets:
    """The pair-based nets of `geometry._greedy_net_size` against the linear
    scans above, which compare each member with every kept row."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_covering_number_equals_old(self, dim):
        rng = np.random.default_rng(13)
        for P in (rng.uniform(0, 1, (300, dim)), tie_points(dim)):
            for w in (1 / 64, 1 / 16, 1 / 8, 0.125 * np.sqrt(2), 0.25, 0.5, 2.0):
                assert covering_number(P, w) == old_covering_number(P, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_direction_covering_equals_old(self, dim):
        rng = np.random.default_rng(14)
        D = rng.normal(size=(200, dim))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        axes = np.eye(dim)
        ties = np.concatenate([axes, -axes, axes, (axes + np.roll(axes, 1, 0)) / np.sqrt(2)])
        for dirs in (D, ties):
            for w in (0.05, 0.2, np.sqrt(2), 1.0, 2.5):
                assert direction_covering_number(dirs, w) == \
                    old_direction_covering_number(dirs, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_line_covering_equals_old(self, dim):
        families = [random_lines(120, dim, seed=15), generate_vertical(1 / 8, dim).lines(),
                    random_config(60, dim, 16, spread=0.2).lines()]
        for lines in families:
            for w in (0.05, 0.25, 0.5, 1.0):
                assert line_covering_number(lines, w) == old_line_covering_number(lines, w)

    @pytest.mark.parametrize("chunk", [1, 50])
    def test_counts_independent_of_pair_blocks(self, chunk, monkeypatch):
        # `geometry._cell_pairs` blocks the pairs; the counts do not depend on it
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        rng = np.random.default_rng(13)
        for dim in (2, 3):
            P, D = rng.uniform(0, 1, (300, dim)), rng.normal(size=(200, dim))
            lines, ties = random_lines(120, dim, seed=15), tie_points(dim)
            for w in (1 / 16, 0.125 * np.sqrt(2), 0.5):
                assert covering_number(P, w) == old_covering_number(P, w)
                assert covering_number(ties, w) == old_covering_number(ties, w)
                assert direction_covering_number(D, w) == old_direction_covering_number(D, w)
                assert line_covering_number(lines, w) == old_line_covering_number(lines, w)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniformized_separated_at_certificate_scales(self, seed):
        # the highlow benchmark's separated configuration and its checks
        sub, cert = uniformize(separated_config(300, 3, seed), 8.0, delta=8.0 ** -3)
        P, lines = sub.points(), sub.lines()
        assert len(cert.scales) >= 2 and len(lines) > 1
        for w in cert.scales:
            dirs = rescale_config(sub, w, sub.pairs[0]).directions()
            assert covering_number(P, w) == old_covering_number(P, w)
            assert direction_covering_number(dirs, w) == old_direction_covering_number(dirs, w)
            assert line_covering_number(lines, w) == old_line_covering_number(lines, w)

    def test_bush_and_plane_families(self):
        _, bush = generate_bush(1 / 32, 3, 2, seed=1)
        dirs = np.array([ln.dir for ln in bush])
        for w in (1 / 64, 1 / 32, 1 / 16):
            assert direction_covering_number(dirs, w) == old_direction_covering_number(dirs, w)
        _, plane = generate_plane_example(1 / 16)
        dirs = np.array([ln.dir for ln in plane])
        for w in (1 / 32, 1 / 16, 1 / 8, 0.25):
            assert direction_covering_number(dirs, w) == old_direction_covering_number(dirs, w)
            assert line_covering_number(plane, w) == old_line_covering_number(plane, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_antipodal_and_tied_sets(self, dim):
        rng = np.random.default_rng(21)
        D = rng.normal(size=(60, dim))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        antipodal = np.concatenate([D, -D, D[::2], -D[1::3]])[rng.permutation(150)]
        # a lattice of spacing 1/8: many distances equal the scale exactly
        lattice = tie_points(dim)
        for w in (0.05, 0.125, 0.25, 0.5, 1.0, 2.0):
            assert direction_covering_number(antipodal, w) == \
                old_direction_covering_number(antipodal, w)
            assert direction_covering_number(lattice, w) == \
                old_direction_covering_number(lattice, w)
            assert covering_number(np.concatenate([lattice, -lattice]), w) == \
                old_covering_number(np.concatenate([lattice, -lattice]), w)
        # parallel lines 1/8 apart, and antipodal directions at one base
        parallel = [Line(p, np.eye(dim)[-1]) for p in lattice]
        flipped = [Line(lattice[k % 7], d) for k, d in enumerate(antipodal)]
        for w in (0.125, 0.25, 0.125 * np.sqrt(2), 0.5):
            assert line_covering_number(parallel, w) == old_line_covering_number(parallel, w)
            assert line_covering_number(flipped, w) == old_line_covering_number(flipped, w)

    @pytest.mark.parametrize("first", [0, 5])
    def test_non_finite_rows(self, first):
        # a NaN distance blocks a row; a NaN first row blocks every later one;
        # non-finite rows sit in the first and in later blocks
        rng = np.random.default_rng(22)
        P = rng.uniform(0, 1, (700, 3))
        P[first] = np.nan
        P[[17, 300, 650], 1] = np.nan
        P[[40, 420]] = np.inf
        P[41] = [-np.inf, 0.0, 0.0]
        P[60:63] = [[0.0, np.inf, 0.0], [0.0, np.inf, 1.0], [0.0, 0.0, -np.inf]]
        P[500:503] = [[0.0, -np.inf, 0.0], [np.inf, np.inf, 0.0], [0.0, 0.0, np.inf]]
        with np.errstate(invalid="ignore"):
            for w in (0.05, 0.2, 0.6, np.inf):
                assert covering_number(P, w) == old_covering_number(P, w)
                assert direction_covering_number(P, w) == old_direction_covering_number(P, w)

    def test_far_lines(self):
        # bases beyond geometry._TAME: their distances can be inf or NaN, so
        # they are compared with every kept line
        rng = np.random.default_rng(23)
        lines = random_lines(40, 3, seed=24)
        far = [Line(s * rng.uniform(-1, 1, 3), rng.normal(size=3)) for s in (1e300, 1e308, 1e100)]
        far += [Line([1e308, 0.0, 0.0], [1.0, 0.0, 0.0]), Line([-1e308, 0.0, 0.0], [1.0, 0, 0])]
        family = lines[:20] + far + lines[20:] + far[::-1]
        with np.errstate(invalid="ignore", over="ignore"):
            for w in (0.1, 0.5, 1.5, np.inf):
                assert line_covering_number(family, w) == scan_line_covering_number(family, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_identical_rows(self, dim):
        rng = np.random.default_rng(25)
        x = rng.uniform(0, 1, dim)
        X = np.tile(x, (700, 1))
        lines = [Line(x, X[0] + 0.5)] * 300
        for w in (1e-300, 0.1, np.inf):
            assert covering_number(X, w) == old_covering_number(X, w) == 1
            assert direction_covering_number(X, w) == 1
            assert line_covering_number(lines, w) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_extreme_scales(self, dim):
        rng = np.random.default_rng(26)
        P = np.concatenate([rng.uniform(0, 1, (150, dim)), 1e-170 * rng.uniform(0, 1, (50, dim)),
                            np.zeros((3, dim))])
        D = rng.normal(size=(150, dim))
        lines = random_lines(80, dim, seed=27)
        for w in (1e-300, 5e-324, np.inf):
            assert covering_number(P, w) == old_covering_number(P, w)
            assert direction_covering_number(D, w) == old_direction_covering_number(D, w)
            assert line_covering_number(lines, w) == old_line_covering_number(lines, w)

    def test_independent_of_block_size(self, monkeypatch):
        rng = np.random.default_rng(28)
        P = np.concatenate([rng.uniform(0, 1, (200, 3)), np.tile([0.5, 0.5, 0.5], (40, 1))])
        D = rng.normal(size=(200, 3))
        lines = random_lines(150, 3, seed=29)

        def nets():
            return [(covering_number(P, w), direction_covering_number(D, w),
                     line_covering_number(lines, w)) for w in (0.05, 0.2, 0.7)]

        want = nets()
        for block, chunk in ((1, 1), (3, 5), (7, 64), (64, 3)):
            monkeypatch.setattr(geometry, "_NET_BLOCK", block)
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
            assert nets() == want

    def test_coarser_cells_when_keys_overflow(self, monkeypatch):
        # an index refused for too many distinct cells is built again with
        # cells 1024 times wider, which only adds candidate pairs
        real = geometry._CellIndex
        sides = []

        def refuse_fine(P, side, origin=0.0):
            if side < 0.2:
                sides.append(side)
                raise ValueError("too many distinct cell coordinates for int64 keys")
            return real(P, side, origin)

        P = np.random.default_rng(31).uniform(0, 1, (300, 3))
        want = [covering_number(P, w) for w in (0.01, 0.05)]
        monkeypatch.setattr(geometry, "_CellIndex", refuse_fine)
        assert [covering_number(P, w) for w in (0.01, 0.05)] == want
        assert len(sides) == 2

    def test_identical_directions_bounded_memory(self):
        # a quadratic array of pairs would take n^2 = 4e8 entries here
        D = np.tile([0.6, 0.8, 0.0], (20000, 1))
        tracemalloc.start()
        try:
            assert direction_covering_number(D, 0.1) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_empty_and_bad_scale(self):
        assert covering_number(np.empty((0, 3)), 0.1) == 0
        assert direction_covering_number([], 0.1) == 0
        assert line_covering_number([], 0.1) == 0
        for net in (covering_number, direction_covering_number, line_covering_number):
            for w in (0.0, -1.0, np.nan):
                with pytest.raises(ValueError):
                    net([], w)
        pts = np.random.default_rng(30).uniform(0, 1, (5, 2))
        for w in (0.0, np.nan):
            with pytest.raises(ValueError):
                covering_number(pts, w)
            with pytest.raises(ValueError):
                direction_covering_number(pts, w)
            with pytest.raises(ValueError):
                line_covering_number([Line(p, [1.0, 0.0]) for p in pts], w)


# ---------------------------------------------------------------------------
# dyadic ladder


DELTAS = [1 / 16, 1 / 8, 0.1, 0.3, 1 / 3, (1 + 5e-10) / 8, 0.6, 1.0]


class TestDyadicLadder:
    @pytest.mark.parametrize("start", DELTAS)
    def test_ladder_and_pairs_equal_old_loops(self, start):
        assert dyadic_ladder(start) == old_ladder(start)
        assert dyadic_ladder(start, 4.0) == old_ladder(start, 4.0)
        got = [(min(u, 1.0), min(w, 1.0)) for u, w in dyadic_pairs(start, start)]
        assert got == old_pairs(start, start)
        got = [(min(u, 1.0), min(w, 1.0)) for u, w in dyadic_pairs(start, 2 * start)]
        assert got == old_pairs(start, 2 * start)

    @pytest.mark.parametrize("start", [0.0, -0.125, np.nan, np.inf, -np.inf])
    def test_bad_start_raises(self, start):
        with pytest.raises(ValueError):
            dyadic_ladder(start)
        with pytest.raises(ValueError):
            dyadic_pairs(start, 0.125)
        with pytest.raises(ValueError):
            dyadic_pairs(0.125, start)


class _Stop(Exception):
    pass


def _spy(record, result=None):
    def fn(*args, **kw):
        record.append(args)
        if result is None:
            raise _Stop
        return result(*args)
    return fn


class TestLadderCallers:
    """Every caller asks for the same scales as its old hand-written loop."""

    @pytest.mark.parametrize("delta", [1 / 16, 0.1, (1 + 5e-10) / 8])
    def test_katz_tao_fit(self, delta):
        lines = random_lines(8, 3, seed=17)
        fit = katz_tao_fit(lines, delta)
        assert [(u, w) for u, w, _, _ in fit.residuals] == sorted(set(old_pairs(delta, delta)))[:64]
        segs = arrays(tube_family(8, 2, 18, unit=False))
        fit = katz_tao_fit(segs, delta)
        assert [w for _, w, _, _ in fit.residuals] == [min(w, 1.0) for w in old_ladder(delta)]

    @pytest.mark.parametrize("delta", [1 / 16, 0.1, 0.3, 0.6])
    def test_plane_reduction_check(self, delta):
        rep = plane_reduction_check(random_config(8, 3, 19), delta, 0.5)
        keep = lambda u, w: u * w >= delta * (1 - 1e-12)  # noqa: E731
        assert [(r.u, r.w) for r in rep.rows] == sorted(set(old_pairs(delta, 2 * delta, keep=keep)))

    @pytest.mark.parametrize("delta", [1 / 16, 1 / 64, 0.1])
    def test_rhs_wellspaced(self, delta, monkeypatch):
        calls = []
        monkeypatch.setattr(incidence, "m_lines_sweep", _spy(calls))
        with pytest.raises(_Stop):
            incidence.rhs_wellspaced(delta, np.full((4, 3), 0.5), random_lines(4, 3, 20),
                                     1.0, 1.0, 1.0, 1.0, 1.0)
        root = float(np.sqrt(delta))
        assert calls[0][1] == sorted(set([(delta, delta), (root, root)]
                                         + old_pairs(delta, delta, factor=4.0)))

    @pytest.mark.parametrize("delta", [1 / 16, 0.1, (1 + 5e-10) / 8])
    def test_verify_and_measure_3d(self, delta, monkeypatch):
        calls = []
        monkeypatch.setattr(tubes_mod, "tube_box_counts_3d",
                            _spy(calls, lambda fam, scales: [1] * len(scales)))
        fam = tube_family(4, 3, 21)
        rows = tubes_mod._kt_profile(fam, delta, 1.0, 1.0)
        tubes_mod._verify_kt(fam, delta, 10.0, 1.0, 1.0)
        measure_kt_constant(fam, delta, 1.0, 1.0)
        expected = sorted(set(old_pairs(delta, delta)))
        assert [scale for scale, *_ in rows] == expected
        assert [c[1] for c in calls] == [expected] * 3

    @pytest.mark.parametrize("delta", [1 / 16, 0.1, (1 + 5e-10) / 8])
    def test_verify_and_measure_2d(self, delta, monkeypatch):
        calls = []
        monkeypatch.setattr(tubes_mod, "m_tubes_2d",
                            _spy(calls, lambda *a: [1] * len(a[3])))
        fam = tube_family(4, 2, 22)
        rows = tubes_mod._kt_profile(fam, delta, 1.0, None)
        tubes_mod._verify_kt(fam, delta, 10.0, 1.0)
        measure_kt_constant(fam, delta, 1.0)
        # the counts and the weights take the clipped w, as in 3D
        ws = [min(w, 1.0) for w in old_ladder(delta)]
        assert [scale for scale, *_ in rows] == [(w, w) for w in ws]
        assert [(a, b) for *_, a, b in rows] == [(w / delta, 1.0) for w in ws]
        assert [c[3] for c in calls] == [ws] * 3

    @pytest.mark.parametrize("delta", [1 / 16, 0.1, (1 + 5e-10) / 16])
    def test_generate(self, delta, monkeypatch):
        # the probe's half-extents: u x w x 1 boxes in 3D, w x 1 rectangles in 2D
        seen3, seen2 = [], []
        monkeypatch.setattr(tubes_mod, "_box_counts", _spy(seen3, concentration._box_counts))
        generate_katz_tao_tubes(delta, 1.0, 1.0, 1, dim=3)
        monkeypatch.setattr(tubes_mod, "_box_counts", _spy(seen2, concentration._box_counts))
        generate_katz_tao_tubes(delta, 1.0, 1.0, 1, dim=2)
        assert seen3[0][5].tolist() == [[u / 2.0, w / 2.0, 0.5]
                                        for u, w in sorted(set(old_pairs(delta, 2 * delta)))]
        assert [c[5].tolist() for c in seen2] == \
            [[[w / 2.0, 0.5] for w in sorted({min(w, 1.0) for w in old_ladder(2 * delta)})]]
