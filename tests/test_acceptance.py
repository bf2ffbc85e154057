"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import importlib.util
from pathlib import Path

import numpy as np

from heilbronn import concentration
from heilbronn.concentration import (
    ConfigMetrics,
    m_lines_sweep,
    uniformize,
)
from heilbronn.configurations import (
    generate_bush,
    generate_plane_example,
    generate_st_grid,
    generate_vertical,
    min_config_distance,
)
from heilbronn.incidence import (
    double_count_check,
    initial_estimate_check,
    normalized_incidence,
    normalized_incidence_many,
    rhs_basic,
    rhs_refined,
)
from heilbronn.kernels import bump_profile
from heilbronn.search import AnnealSchedule, anneal_max_distance, exponent_estimate
from heilbronn.triangles import min_triangle_brute, min_triangle_fast, \
    triangle_via_pointline
from heilbronn.tubes import (
    Shading,
    Tube2D,
    check_planar_brush,
    check_space_brush,
    generate_katz_tao_tubes,
    measure_kt_constant,
    two_ends_decompose,
)

from conftest import random_config, random_lines, separated_config


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_fast_brute_equivalence():
    rng = np.random.default_rng(101)
    sizes = np.concatenate([rng.integers(8, 81, 440), rng.integers(81, 201, 60)])
    mismatches = 0
    import time
    t0 = time.time()
    for i, n in enumerate(sizes):
        dim = 2 if i % 2 == 0 else 3
        P = rng.uniform(0, 1, (int(n), dim))
        if min_triangle_fast(P).area != min_triangle_brute(P).area:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    report(1, ok, f"fast vs brute on 500 sets: {mismatches} mismatches, "
                  f"{elapsed:.1f}s (< 60s)")


def test_02_vertical_construction_exact():
    bad = []
    for k in range(2, 7):
        delta = 2.0**-k
        for dim in (2, 3):
            X = generate_vertical(delta, dim)
            want = int(np.floor(1 / (2 * delta))) ** (dim - 1)
            if len(X) != want:
                bad.append((delta, dim, "count"))
            if len(X) >= 2 and min_config_distance(X) < delta:
                bad.append((delta, dim, "distance"))
    report(2, not bad, f"vertical counts/distances exact on 10 cases; bad={bad}")


def test_03_trivial_bound_envelope():
    corpus = []
    for k in range(2, 7):
        for dim in (2, 3):
            X = generate_vertical(2.0**-k, dim)
            if len(X) >= 2:
                corpus.append(X)
    for seed in range(3):
        corpus.append(random_config(60, 3, seed))
        corpus.append(separated_config(120, 3, seed))
    corpus.append(anneal_max_distance(12, 2, AnnealSchedule(
        moves_per_epoch=200, epochs=10, seed=0)))
    worst = 0.0
    for X in corpus:
        d = min_config_distance(X)
        worst = max(worst, len(X) * d ** X.dim)
    report(3, worst <= 10.0,
           f"max |X| d(X)^dim over {len(corpus)} corpus members = {worst:.3f} (<= 10)")


def test_04_pipeline_slope():
    import time
    t0 = time.time()
    by_n = {}
    for e in range(6, 13):
        n = 2**e
        vals = []
        for seed in range(10):
            rng = np.random.default_rng(7000 + 131 * e + seed)
            witness, _ = triangle_via_pointline(rng.uniform(0, 1, (n, 3)))
            if witness.area > 0:
                vals.append(witness.area)
        by_n[n] = vals
    fit = exponent_estimate(by_n)
    elapsed = time.time() - t0
    ok = fit.slope <= -2 / 3 + 0.15 and elapsed < 300
    report(4, ok, f"pipeline area slope {fit.slope:.3f} (<= {-2/3 + 0.15:.3f}), "
                  f"r2={fit.r_squared:.3f}, {elapsed:.0f}s (< 300s)")


def test_05_kernel_contract():
    issues = []
    for dim in (2, 3):
        prof = bump_profile(dim)
        if abs(prof.eta_mass - 1.0) > 1e-4:
            issues.append(f"dim{dim}: eta mass {prof.eta_mass}")
        chi = prof.chi(np.linspace(0, 2.5, 2001))
        if np.any(chi < 0) or np.any(chi > 1):
            issues.append(f"dim{dim}: chi out of [0,1]")
        if float(prof.chi(0.5)) < 0.5:
            issues.append(f"dim{dim}: chi(1/2) < 1/2")
        support_idx = np.flatnonzero(prof.eta_values > 0)
        if support_idx.size and prof.eta_grid[support_idx[-1]] > 3.0:
            issues.append(f"dim{dim}: eta support exceeds 3w")
        if np.any(prof.eta_values < 0):
            issues.append(f"dim{dim}: eta negative")
    report(5, not issues, f"kernel contract over both radial tables; issues={issues}")


def test_06_random_incidence_normalization():
    vals = []
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        P = rng.uniform(0, 1, (2000, 3))
        lines = random_lines(2000, 3, seed=900 + seed)
        vals.append(normalized_incidence(0.05, P, lines, 3))
    ok = all(0.25 <= b <= 4.0 for b in vals)
    report(6, ok, f"random B(0.05) across 5 seeds: "
                  f"[{min(vals):.3f}, {max(vals):.3f}] within [1/4, 4]")


def test_07_sharp_example_slopes():
    results = {}
    for dim in (2, 3):
        by_delta = {}
        for k in (4, 5, 6, 7):
            d = 2.0**-k
            pts, lines = generate_bush(d, dim, 2, seed=1)
            by_delta[d] = [normalized_incidence(d, pts, lines, dim)]
        results[f"bush{dim}d"] = (exponent_estimate(by_delta).slope, -(dim - 1))
    by_delta = {}
    for k in (4, 5, 6, 7):
        d = 2.0**-k
        pts, lines = generate_plane_example(d)
        by_delta[d] = [normalized_incidence(d, pts, lines, 3)]
    results["plane"] = (exponent_estimate(by_delta).slope, -1.0)
    ok = all(abs(got - want) <= 0.3 for got, want in results.values())
    detail = ", ".join(f"{k}: {got:.2f} (want {want})"
                       for k, (got, want) in results.items())
    report(7, ok, detail)


def test_08_empirical_high_low():
    families = []
    for k in (3, 4, 5, 6, 7):
        d = 2.0**-k
        X = generate_vertical(d, 3)
        if len(X) >= 2:
            families.append(("vertical", X.points(), X.lines(), d, 3))
        if d <= 0.1:
            pts, lines = generate_bush(d, 3, 2, seed=1)
            families.append(("bush", pts, lines, d, 3))
        if d <= 0.25:
            pts, lines = generate_plane_example(d)
            families.append(("plane", pts, lines, d, 3))
    rng = np.random.default_rng(808)
    P = rng.uniform(0, 1, (500, 3))
    L = random_lines(500, 3, 9)
    for k in (3, 4, 5, 6, 7):
        families.append(("random", P, L, 2.0**-k, 3))
    pts2, lines2 = generate_st_grid(512)
    for k in (3, 4, 5, 6, 7):
        families.append(("st-grid", pts2, lines2, 2.0**-k, 2))

    worst_hl = 0.0
    worst_ref = 0.0
    for name, P_, L_, d, dim in families:
        b1, b2 = normalized_incidence_many([d, 2 * d], P_, L_, dim)
        rhs = rhs_basic(d, P_, L_, dim)
        worst_hl = max(worst_hl, (b1 - b2) ** 2 / rhs)
        if dim == 3:
            ref, _ = rhs_refined(d, P_, L_)
            worst_ref = max(worst_ref, ref / rhs)
    ok = worst_hl <= 1e3 and worst_ref <= 16.0
    report(8, ok, f"high-low ratio max {worst_hl:.3g} (<= 1e3); "
                  f"refined/basic max {worst_ref:.2f} (<= 16) over "
                  f"{len(families)} family/scale cells")


def test_09_st_grid_matching():
    N = 4096
    pts, lines = generate_st_grid(N)
    base = N ** (-2 / 3)
    cs = (0.25, 0.5, 1.0)
    ws = sorted({c * base for c in cs} | {c * base / 2 for c in cs})
    bs = dict(zip(ws, normalized_incidence_many(ws, pts, lines, 2)))
    ratios = {}
    for c in cs:
        d = c * base
        lhs2 = (bs[d] - bs[d / 2]) ** 2
        rhs = rhs_basic(d, pts, lines, 2)
        ratios[c] = lhs2 / rhs
    in_window = {c: 1e-2 <= r <= 1e2 for c, r in ratios.items()}
    # the matching scale is where the incidence profile transitions; the
    # sweep exists to locate it, so at least one c must land in the window
    ok = any(in_window.values())
    detail = ", ".join(f"c={c}: ratio={ratios[c]:.3g}{'*' if in_window[c] else ''}"
                       for c in cs)
    report(9, ok, f"grid-family both-sides matching (window [1e-2,1e2]): {detail}")


def test_10_two_ends_certificates():
    import time
    delta, span = 2.0**-8, 2.0**-3
    script = Path(__file__).resolve().parents[1] / "scripts" / "two_ends_certificates.py"
    spec = importlib.util.spec_from_file_location("two_ends_certificates", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the corpus the certificate script writes its CSV from
    corpus = dict(module.corpus(delta))
    t0 = time.time()
    bad = []
    for name, tubes in corpus.items():
        res = two_ends_decompose(tubes, delta, span)
        n = len(tubes)
        if res.overlap_upper > 100 * span**-2 * np.sqrt(n):
            bad.append(f"{name}: overlap {res.overlap_upper}")
        if res.max_selection > 10 * np.log(1 / delta) / np.log(2 / span):
            bad.append(f"{name}: selection {res.max_selection}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 180
    report(10, ok, f"two-ends certificates on 4 families, {elapsed:.0f}s "
                   f"(< 180s); violations={bad}")


def test_11_hairbrush_bounds():
    worst = 0.0
    checked = 0
    for dim in (2, 3):
        for fam_idx in range(20):
            delta = 1 / 16 if fam_idx % 2 == 0 else 1 / 32
            count = 50 + 5 * fam_idx
            tubes, _ = generate_katz_tao_tubes(delta, 1.0, 1.0, count,
                                               seed=fam_idx, dim=dim)
            if len(tubes) < 10:
                continue
            if fam_idx % 3 == 2:
                shading = Shading.random_fraction(tubes, 0.5, seed=fam_idx)
            else:
                shading = Shading.full(tubes)
            delta_eff = max(t.width for t in tubes)
            if dim == 2:
                K = measure_kt_constant(tubes, delta_eff, 1.0) * 1.01
                rep = check_planar_brush(tubes, shading, 1.0, K, eps=0.1)
            else:
                K = measure_kt_constant(tubes, delta_eff, 1.0, 1.0) * 1.01
                rep = check_space_brush(tubes, shading, 1.0, 1.0, K, eps=0.1)
            worst = max(worst, rep.constant_needed)
            checked += 1
    ok = worst <= 1e3 and checked >= 38
    report(11, ok, f"union-volume lower bounds on {checked} certified families; "
                   f"worst constant {worst:.2f} (<= 1e3)")


def test_12_concentration_calculus(monkeypatch):
    rng = np.random.default_rng(12)
    worst_box = 0.0
    # box candidates from 16 anchors and 8 partners, not the library's 48 and 24
    monkeypatch.setattr(concentration, "_ANCHORS", 16)
    monkeypatch.setattr(concentration, "_PARTNERS", 8)
    for seed in range(200):
        lines = random_lines(int(rng.integers(20, 45)), 3, seed=seed)
        u, w = sorted(rng.choice([0.05, 0.1, 0.2, 0.4], 2))
        A, B = rng.choice([2.0, 4.0], 2)
        scales = [(u, w), (min(A * u, 1.0), min(max(B * w, A * u), 1.0))]
        vals, _ = m_lines_sweep(lines, scales)
        uu, ww = scales[1]
        factor = (uu / u) ** 2 * (ww / w) ** 2
        worst_box = max(worst_box, vals[1] / (factor * max(vals[0], 1)))
    worst_lip = 0.0
    identity_ok = True
    for seed in range(30):
        X = random_config(50, 3, seed + 300)
        mets = ConfigMetrics(X)
        for _ in range(7):
            u, v, w = rng.uniform(0.05, 0.45, 3)
            A, B, C = rng.choice([2.0, 4.0], 3)
            small = mets.local_counts(u, v, w).max()
            big = mets.local_counts(min(A * u, 1), min(B * v, 1), min(C * w, 1)).max()
            worst_lip = max(worst_lip, big / (A**3 * B**2 * C**4 * small))
        for _ in range(4):
            u, v, w = rng.uniform(0.05, 1.0, 3)
            if mets.local_counts(u, v, w).max() != mets.local_counts(u, min(v, w), w).max():
                identity_ok = False
    ok = worst_box <= 64 and worst_lip <= 64 and identity_ok
    report(12, ok, f"box inflation constant {worst_box:.2f} (<= 64), "
                   f"triple-scale inflation {worst_lip:.2f} (<= 64), "
                   f"min-identity exact: {identity_ok}")


def test_13_uniformize_certificate():
    from heilbronn.geometry import line_metric
    X = random_config(1000, 3, seed=13)
    delta = 2.0**-6
    sub, cert = uniformize(X, 4.0, delta=delta)
    # independent revalidation at up to 100 anchors with fresh distances
    pairs = sub.pairs
    rng = np.random.default_rng(0)
    anchors = rng.choice(len(pairs), size=min(100, len(pairs)), replace=False)
    independent_ok = True
    for (si, sj, sk), (mn, mx) in cert.ratios.items():
        for a in anchors:
            cnt = 0
            for q in pairs:
                dp = float(np.linalg.norm(pairs[a].point - q.point))
                dth = min(np.linalg.norm(pairs[a].line.dir - q.line.dir),
                          np.linalg.norm(pairs[a].line.dir + q.line.dir))
                dl = line_metric(pairs[a].line, q.line)
                cnt += (dp <= si) and (dth <= sj) and (dl <= sk)
            if not mn <= cnt <= mx:
                independent_ok = False
    P_measured = np.log(len(X) / len(sub)) / np.log(np.log(1 / delta))
    ok = cert.valid and independent_ok
    report(13, ok, f"certificate valid={cert.valid}, independent recount "
                   f"agrees={independent_ok}; retained {len(sub)}/{len(X)}, "
                   f"measured size exponent P={P_measured:.2f}")


def test_14_initial_estimate_and_double_count():
    K = 8.0
    delta = K**-3.0
    corpus = [
        separated_config(600, 3, seed=141, K=8, levels=3),
        separated_config(400, 3, seed=142, K=8, levels=3),
        generate_vertical(2.0**-5, 3),
    ]
    worst = 0.0
    cells = 0
    for X in corpus:
        sub, cert = uniformize(X, K, delta=delta)
        if len(sub) < 2:
            continue
        for w in cert.scales:
            if w <= min_config_distance(sub):
                continue
            chk1 = initial_estimate_check(sub, w)
            chk2 = double_count_check(sub, w)
            worst = max(worst, chk1.slack, chk2.slack)
            cells += 1
    ok = worst <= K**3 and cells >= 6
    report(14, ok, f"initial-estimate and double-count slack over {cells} "
                   f"(member, scale) cells: worst {worst:.2f} (<= K^3 = {K**3:.0f})")


def test_15_cli_determinism(tmp_path):
    from heilbronn.cli import main
    from heilbronn.formats import write_config, write_points, write_tubes
    rng = np.random.default_rng(15)
    pts = str(tmp_path / "p.pts")
    plc = str(tmp_path / "l.plc")
    tub = str(tmp_path / "t.tubes")
    write_points(pts, rng.uniform(0, 1, (60, 3)))
    write_config(plc, random_config(60, 3, 5))
    write_tubes(tub, [Tube2D(rng.uniform(0.1, 0.9, 2), rng.normal(size=2),
                             2.0**-8, 1.0) for _ in range(80)])
    commands = {
        "scan-b": ["scan-b", "-p", pts, "-l", plc, "--wmax", "0.25",
                   "--wmin", "0.03"],
        "dx": ["dx", "-p", plc],
        "two-ends": ["two-ends", "-t", tub, "--delta", str(2.0**-8),
                     "--span", "0.125"],
        "conc": ["conc", "-p", plc, "--mode", "config", "--u", "0.3",
                 "--v", "0.4", "--w", "0.5"],
    }
    stable = {}
    for name, argv in commands.items():
        o1 = str(tmp_path / f"{name}1.csv")
        o2 = str(tmp_path / f"{name}2.csv")
        assert main(argv + ["-o", o1]) == 0
        assert main(argv + ["-o", o2]) == 0
        stable[name] = open(o1, "rb").read() == open(o2, "rb").read()
    ok = all(stable.values())
    report(15, ok, f"byte-identical replays: {stable}")
