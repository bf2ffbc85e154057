import heapq
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from heilbronn import geometry, triangles
from heilbronn.geometry import Line, _points_lines_block
from heilbronn.triangles import (
    _cell_blocks,
    _triu_pairs,
    greedy_close_pairs,
    min_triangle_brute,
    min_triangle_fast,
    triangle_area,
    triangle_via_pointline,
)

from conftest import cross_block


def permuted_brute(P, order):
    """Independent re-implementation with permuted loop order."""
    best = np.inf
    witness = None
    for i, j, k in order:
        i, j, k = sorted((i, j, k))
        a = triangle_area(P[i], P[j], P[k])
        if a < best or (a == best and (i, j, k) < witness):
            best, witness = a, (i, j, k)
    return best, witness


def triu_brute(P):
    """Reference brute force: per apex, the strict upper triangle of the
    cross-product block gathered by np.triu_indices, first minimum wins."""
    n = P.shape[0]
    best2, witness = np.inf, (0, 1, 2)
    for i in range(n - 2):
        C = cross_block(P[i + 1:] - P[i])
        ju, ku = np.triu_indices(C.shape[0], 1)
        vals = C[ju, ku]
        block_min = float(vals.min())
        if block_min < best2:
            first = int(np.flatnonzero(vals == block_min)[0])
            best2 = block_min
            witness = (i, i + 1 + int(ju[first]), i + 1 + int(ku[first]))
    return witness, best2 / 2.0


def rebuild_greedy_pairs(P):
    """Reference greedy pairing: a kd-tree rebuilt over the survivors every
    round, the first argmin of the nearest-neighbour distance wins."""
    n = P.shape[0]
    m = n // 4
    alive = np.ones(n, dtype=bool)
    pairs, dists = [], []
    for _ in range(m):
        live = np.flatnonzero(alive)
        dd, jj = cKDTree(P[live]).query(P[live], k=2)
        which = int(np.argmin(dd[:, 1]))
        i, j = int(live[which]), int(live[jj[which, 1]])
        pairs.append((min(i, j), max(i, j)))
        dists.append(float(dd[which, 1]))
        alive[i] = alive[j] = False
    return pairs, np.array(dists)


def kdtree_greedy_pairs(P):
    """Reference greedy pairing on one kd-tree and a lazy heap (the pairing
    before the cell grid): each dead neighbour is re-queried on the full tree
    with k doubling until an alive neighbour shows."""
    n = P.shape[0]
    m = n // 4
    tree = cKDTree(P)
    dd, jj = tree.query(P, k=2)
    rows = np.arange(n)
    col = (jj[:, 0] == rows).astype(np.intp)
    heap = list(zip(dd[rows, col].tolist(), range(n), jj[rows, col].tolist()))
    heapq.heapify(heap)
    alive = np.ones(n, dtype=bool)
    pairs, dists = [], []
    while len(pairs) < m:
        d, i, j = heapq.heappop(heap)
        if not alive[i]:
            continue
        if not alive[j]:
            k = 4
            while True:
                dk, jk = tree.query(P[i], k=min(k, n))
                hit = np.flatnonzero(alive[jk] & (jk != i))
                if hit.size:
                    heapq.heappush(heap, (float(dk[hit[0]]), i, int(jk[hit[0]])))
                    break
                k *= 2
            continue
        pairs.append((min(i, j), max(i, j)))
        dists.append(d)
        alive[i] = alive[j] = False
    return pairs, np.array(dists)


def dense_sq_dists(P):
    """All squared distances, the squares summed in coordinate order."""
    return sum((P[:, None, k] - P[None, :, k]) ** 2 for k in range(P.shape[1]))


def dense_greedy_pairs(P):
    """Reference greedy pairing on the full distance matrix: each round every
    alive i takes its nearest alive j != i (the smallest j among equal
    squared distances), and the smallest i among the smallest distances
    pairs with its j."""
    n = P.shape[0]
    m = n // 4
    sq = dense_sq_dists(P)
    np.fill_diagonal(sq, np.inf)
    alive = np.ones(n, dtype=bool)
    pairs, dists = [], []
    for _ in range(m):
        S = np.where(alive[:, None] & alive[None, :], sq, np.inf)
        jj = S.argmin(axis=1)
        dist = np.sqrt(S[np.arange(n), jj])
        i = int(np.argmin(dist))
        j = int(jj[i])
        pairs.append((min(i, j), max(i, j)))
        dists.append(float(dist[i]))
        alive[i] = alive[j] = False
    return pairs, np.array(dists)


def modular_moment_curve(p, dim, planar=False):
    """(x, x^2 mod p[, x^3 mod p]) for x < p: integer points with many
    exactly equal triangle areas.  `planar` sets the third coordinate to 0,
    which keeps the 2D ties (the minimum among them) on the 3D code path."""
    x = np.arange(p)
    cols = [x, x**2 % p, 0 * x if planar else x**3 % p][:dim]
    return np.stack(cols, axis=1).astype(float)


def doubled_areas(P):
    """Twice the area of every triple, as the brute force computes it."""
    out = []
    for i in range(P.shape[0] - 2):
        C = cross_block(P[i + 1:] - P[i])
        out.append(C[np.triu_indices(C.shape[0], 1)])
    return np.concatenate(out)


def reference_blocks(P, cell):
    """Sorted members of each cell's 3^d block, cells in first-appearance order."""
    d = P.shape[1]
    buckets = {}
    for idx, key in enumerate(map(tuple, np.floor(P / cell).astype(np.int64))):
        buckets.setdefault(key, []).append(idx)
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    blocks = []
    for key in buckets:
        idx = []
        for off in offsets:
            idx.extend(buckets.get(tuple(np.array(key) + off), ()))
        blocks.append(sorted(idx))
    return blocks


def reference_local_pass(P, cell):
    """The grid pass as a loop: the brute force on every block of 3 or more
    points, the first block with a strictly smaller minimum wins."""
    best, witness = np.inf, None
    for idx in reference_blocks(P, cell):
        if len(idx) < 3:
            continue
        w = min_triangle_brute(P[idx])
        if w.area < best:
            best = w.area
            witness = tuple(sorted(idx[t] for t in w.indices))
    return (0, 1, 2) if witness is None else witness, best


def reference_fast(P):
    """min_triangle_fast as a per-apex loop: one stable sort of the packed
    keys of all shifted grids per apex, pairs from consecutive equal keys and
    from every run of 3 or more, and a scalar replay of the candidates."""
    P = np.asarray(P, dtype=float)
    n, d = P.shape
    if n <= 120:
        w = min_triangle_brute(P)
        return w.indices, w.area
    cell = max(n ** (-1.0 / d), 1e-6)
    witness, best = reference_local_pass(P, cell)
    if best == 0.0:
        return witness, 0.0
    h = 1.5 * min(1.0, 4.0 * best / (cell * cell))

    def canonical_area(i, j, k):
        i, j, k = sorted((i, j, k))
        return float(cross_block(np.stack([P[j] - P[i], P[k] - P[i]]))[0, 1]) / 2.0

    shifts = np.array(np.meshgrid(*([[0.0, 0.5]] * d), indexing="ij")).reshape(d, -1).T
    n_shift = shifts.shape[0]
    all_idx = np.arange(n)
    for i in range(n):
        rel = P - P[i]
        norms = np.linalg.norm(rel, axis=1)
        ok = norms > 1e-15
        if np.count_nonzero(ok) < 2:
            continue
        dirs = rel[ok] / norms[ok, None]
        others = all_idx[ok]
        flip = np.where(dirs[:, 0] < 0, -1.0, 1.0)
        flip = np.where(np.abs(dirs[:, 0]) < 1e-14,
                        np.where(dirs[:, 1] < 0, -1.0, 1.0), flip)
        dirs = dirs * flip[:, None]
        keys = np.floor(dirs / h + shifts[:, None, :]).astype(np.int64)
        packed = keys[..., 0]
        for ax in range(1, d):
            packed = packed * 1_000_003 + keys[..., ax]
        packed = packed * n_shift + np.arange(n_shift)[:, None]
        flat = packed.ravel()
        order = np.argsort(flat, kind="stable")
        sp = flat[order]
        m_ok = dirs.shape[0]
        consec = sp[1:] == sp[:-1]
        u_loc = order[:-1][consec] % m_ok
        v_loc = order[1:][consec] % m_ok
        run_break = np.flatnonzero(~consec) + 1
        starts = np.concatenate([[0], run_break])
        ends = np.concatenate([run_break, [len(sp)]])
        for g in np.flatnonzero(ends - starts >= 3):
            members = np.unique(order[starts[g]:ends[g]] % m_ok)
            ju, ku = np.triu_indices(members.size, 1)
            u_loc = np.concatenate([u_loc, members[ju]])
            v_loc = np.concatenate([v_loc, members[ku]])
        if u_loc.size == 0:
            continue
        pair_key = np.minimum(u_loc, v_loc) * n + np.maximum(u_loc, v_loc)
        _, uniq = np.unique(pair_key, return_index=True)
        su, sv = rel[ok][u_loc[uniq]], rel[ok][v_loc[uniq]]
        if d == 2:
            vals = np.abs(su[:, 0] * sv[:, 1] - su[:, 1] * sv[:, 0]) / 2.0
        else:
            vals = np.linalg.norm(np.cross(su, sv), axis=1) / 2.0
        for pos in np.flatnonzero(vals <= best * (1.0 + 1e-9)):
            a, b = int(others[u_loc[uniq][pos]]), int(others[v_loc[uniq][pos]])
            cand = canonical_area(i, a, b)
            if cand < best:
                best = cand
                witness = tuple(sorted((i, a, b)))
    return witness, float(best)


def lattice(k, dim):
    g = (np.arange(k) + 0.5) / k
    return np.stack(np.meshgrid(*[g] * dim, indexing="ij"), -1).reshape(-1, dim)


def fast_oracle_sets():
    """Inputs for min_triangle_fast against reference_fast, by name."""
    rng = np.random.default_rng(2024)
    sets = {}
    # sizes around the apex group and block boundaries of both dimensions
    for n, dim in [(121, 2), (250, 2), (431, 2), (121, 3), (200, 3), (343, 3)]:
        sets[f"random{dim}d_{n}"] = rng.uniform(0, 1, (n, dim))
    for p in (127, 131):
        for dim in (2, 3):
            M = modular_moment_curve(p, dim)
            sets[f"moment{p}_{dim}d"] = M / p
            near = M / p
            near[5] = near[9] + 1e-12
            sets[f"moment{p}_{dim}d_near_duplicate"] = near
    # unscaled: every grid block holds fewer than 3 points, so the direction
    # pass starts from no incumbent with its widest hash cell, h = 1.5
    sets["moment131_2d_unscaled"] = modular_moment_curve(131, 2)
    sets["spread3d"] = 1000 * rng.uniform(0, 1, (130, 3))
    for k, dim in [(12, 2), (5, 3)]:
        L = lattice(k, dim)
        sets[f"lattice{k}_{dim}d"] = L
        sets[f"lattice{k}_{dim}d_jitter"] = L + 1e-9 * rng.standard_normal(L.shape)
        near = L + 1e-9 * rng.standard_normal(L.shape)
        near[3] = near[40] + 1e-12
        sets[f"lattice{k}_{dim}d_near_duplicate"] = near
    for dim in (2, 3):
        # points within 1e-15 of an apex (but apart) take the one-apex path
        P = np.random.default_rng(41).uniform(0, 1, (150, dim))
        P[37] = P[11] + np.array([2e-16, 6e-16, 5e-16][:dim])
        sets[f"within_1e-15_{dim}d"] = P
        # a 140-point cluster: blocks far above the batched triple count
        sets[f"cluster_outliers_{dim}d"] = np.vstack(
            [0.5 + 1e-3 * rng.uniform(0, 1, (140, dim)), rng.uniform(0, 1, (20, dim))])
    return sets


FAST_ORACLE_SETS = fast_oracle_sets()


class TestBrute:
    def test_collinear_zero(self):
        P = np.array([[0, 0], [0.5, 0.5], [1, 1]])
        assert min_triangle_brute(P).area == 0.0

    def test_unit_square_corners(self):
        P = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        assert min_triangle_brute(P).area == pytest.approx(0.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_permuted_oracle_exact_tie(self, dim, rng):
        P = rng.uniform(0, 1, (30, dim))
        triples = list(itertools.combinations(range(30), 3))
        rng.shuffle(triples)
        want_area, want_wit = permuted_brute(P, triples)
        got = min_triangle_brute(P)
        assert got.area == want_area
        assert got.indices == want_wit

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            min_triangle_brute(np.zeros((2, 2)))

    @pytest.mark.parametrize("dim,fits,overflows", [(2, 1e150, 1e155), (3, 1e75, 1e80)])
    def test_areas_that_could_overflow_are_refused(self, dim, fits, overflows):
        # 2 s^2 in 2D and 12 s^4 in 3D bound the area intermediates, s the spread
        P = np.random.default_rng(dim).uniform(0, 1, (150, dim))
        assert np.isfinite(min_triangle_brute(P * fits).area)
        for minimize in (min_triangle_brute, min_triangle_fast):
            with pytest.raises(FloatingPointError, match="triangle areas overflow"):
                minimize(P * overflows)
            with pytest.raises(ValueError, match="points must be finite"):
                minimize(np.where(P == P[5, 0], np.nan, P))

    @pytest.mark.parametrize("dim,fits,underflows", [(2, 1e-150, 1e-155), (3, 1e-75, 1e-80)])
    def test_areas_that_could_underflow_are_refused(self, dim, fits, underflows):
        # s^2 in 2D and s^4 in 3D below the smallest normal float: the brute
        # force and the pair pipeline reported an area of 0
        P = np.random.default_rng(dim).uniform(0, 1, (150, dim))
        assert min_triangle_brute(P * fits).area > 0
        for minimize in (min_triangle_brute, min_triangle_fast):
            with pytest.raises(FloatingPointError, match="triangle areas underflow"):
                minimize(P * underflows)
        # in 2D the pipeline's squared distances underflow first
        with pytest.raises(FloatingPointError, match="underflow"):
            triangle_via_pointline(P * underflows)
        # a spread of 0 is no underflow: every area is 0
        for minimize in (min_triangle_brute, min_triangle_fast):
            assert minimize(np.full((150, dim), underflows)).area == 0.0

    @pytest.mark.parametrize("n", [3, 8, 64, 150])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_triu_oracle_random(self, n, dim):
        P = np.random.default_rng(n + dim).uniform(0, 1, (n, dim))
        w = min_triangle_brute(P)
        assert (w.indices, w.area) == triu_brute(P)

    @pytest.mark.parametrize("p", [31, 61, 127])
    @pytest.mark.parametrize("dim,planar", [(2, False), (3, False), (3, True)])
    def test_equals_triu_oracle_ties(self, p, dim, planar):
        P = modular_moment_curve(p, dim, planar)
        # the input really is tie-heavy: areas repeat exactly, and except on
        # the 3D moment curve the minimal one is shared by several triples
        areas = doubled_areas(P)
        assert np.unique(areas).size < 0.6 * areas.size
        if dim == 2 or planar:
            assert np.count_nonzero(areas == areas.min()) > 1
        w = min_triangle_brute(P)
        assert (w.indices, w.area) == triu_brute(P)


    @pytest.mark.parametrize("slice_", [1, 50, 200])
    @pytest.mark.parametrize("dim,planar", [(2, False), (3, True)])
    def test_row_slices_keep_the_first_minimum(self, slice_, dim, planar, monkeypatch):
        # one row a slice, several rows with a short last slice, and slices
        # of several rows on the smaller blocks: the witness of the whole
        # block's first row-major minimum, also on exact ties (the lattice's
        # collinear triples tie at 0 across the rows of one apex)
        monkeypatch.setattr(triangles, "_SLICE", slice_)
        lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * dim, indexing="ij"), -1)
        for P in (modular_moment_curve(31, dim, planar), lattice.reshape(-1, dim),
                  np.random.default_rng(dim).uniform(0, 1, (64, dim))):
            w = min_triangle_brute(P)
            assert (w.indices, w.area) == triu_brute(P)


class TestFast:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_brute(self, seed, dim):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(125, 200))
        P = rng.uniform(0, 1, (n, dim))
        assert min_triangle_fast(P).area == min_triangle_brute(P).area

    def test_duplicates_give_zero(self, rng):
        P = rng.uniform(0, 1, (150, 3))
        P[37] = P[11]
        assert min_triangle_fast(P).area == 0.0

    def test_clustered(self, rng):
        P = np.vstack([0.5 + 1e-3 * rng.uniform(0, 1, (140, 3)),
                       rng.uniform(0, 1, (20, 3))])
        assert min_triangle_fast(P).area == min_triangle_brute(P).area

    def test_collinear_far_apart(self, rng):
        # three near-collinear far points: thin-sliver capture path
        P = rng.uniform(0, 1, (150, 2))
        P[0] = [0.01, 0.01]
        P[1] = [0.99, 0.985]
        P[2] = [0.5, 0.4975 + 1e-9]
        assert min_triangle_fast(P).area == min_triangle_brute(P).area

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_witness_equals_triu_oracle(self, seed, dim):
        # random coordinates: the minimal triangle is unique, so the
        # witnesses agree as well as the areas
        P = np.random.default_rng(100 + seed).uniform(0, 1, (160, dim))
        w = min_triangle_fast(P)
        assert (w.indices, w.area) == triu_brute(P)

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_cached_triu_pairs(self, m):
        ju, ku = _triu_pairs(m)
        assert all(np.array_equal(a, b) for a, b in zip((ju, ku), np.triu_indices(m, 1)))
        assert not ju.flags.writeable and _triu_pairs(m)[0] is ju

    @pytest.mark.parametrize("dim", [2, 3])
    def test_wide_sets_equal_brute(self, dim):
        # cells of side n^(-1/d) put coordinates of 1e20 beyond int64
        P = np.random.default_rng(dim).uniform(0, 1, (121, dim)) * 1e20
        assert min_triangle_fast(P) == min_triangle_brute(P)

    def test_packing_bound_large(self, rng):
        P = rng.uniform(0, 1, (2000, 3))
        w = min_triangle_fast(P)
        assert w.area <= 50 * 2000 ** (-2 / 3)


class TestFastOracle:
    """min_triangle_fast against the per-apex loop it replaced: same witness
    and the same area bits, also with chunks small enough that every batch
    boundary is crossed."""

    @pytest.mark.parametrize("name", sorted(FAST_ORACLE_SETS))
    def test_equals_reference(self, name):
        P = FAST_ORACLE_SETS[name]
        w = min_triangle_fast(P)
        assert (w.indices, w.area) == reference_fast(P)
        assert type(w.area) is float and all(type(x) is int for x in w.indices)

    @pytest.mark.parametrize("name", ["random2d_250", "random3d_200", "lattice12_2d_jitter",
                                      "moment127_3d_near_duplicate", "within_1e-15_3d",
                                      "cluster_outliers_2d", "spread3d"])
    def test_equals_reference_small_chunks(self, name, monkeypatch):
        # 3 apices per group (the last one partial), blocks of more than 6
        # points scored one by one, and runs of equal keys split into apices
        P = FAST_ORACLE_SETS[name]
        n, dim = P.shape
        monkeypatch.setattr(triangles, "_APEX_CHUNK", 3 * 2**dim * (n - 1))
        monkeypatch.setattr(triangles, "_LOCAL_CHUNK", 20)
        w = min_triangle_fast(P)
        assert (w.indices, w.area) == reference_fast(P)

    def test_inputs_reach_their_paths(self):
        sets = FAST_ORACLE_SETS
        for name in ("moment131_2d_unscaled", "spread3d"):
            P = sets[name]
            cell = P.shape[0] ** (-1.0 / P.shape[1])
            assert all(len(b) < 3 for b in reference_blocks(P, cell))
        for dim in (2, 3):
            gap = np.linalg.norm(sets[f"within_1e-15_{dim}d"][37] - sets[f"within_1e-15_{dim}d"][11])
            assert 0 < gap <= 1e-15 and min_triangle_fast(sets[f"within_1e-15_{dim}d"]).area > 0
        P = sets["cluster_outliers_3d"]
        assert max(map(len, reference_blocks(P, P.shape[0] ** (-1 / 3)))) >= 140

    @pytest.mark.parametrize("dim", [2, 3])
    def test_duplicate_points_stop_at_zero(self, dim):
        P = np.random.default_rng(dim).uniform(0, 1, (160, dim))
        P[[37, 90]] = P[11]
        w = min_triangle_fast(P)
        assert w.area == 0.0
        assert (w.indices, w.area) == reference_fast(P)

    @pytest.mark.parametrize("name", ["random2d_431", "random3d_343", "moment131_2d_unscaled",
                                      "cluster_outliers_3d", "lattice5_3d"])
    def test_cell_blocks_equal_reference(self, name):
        P = FAST_ORACLE_SETS[name]
        cell = P.shape[0] ** (-1.0 / P.shape[1])
        members, sizes = _cell_blocks(P, cell)
        got = [b.tolist() for b in np.split(members, np.cumsum(sizes)[:-1])]
        assert got == reference_blocks(P, cell)

    def test_cell_blocks_far_and_negative_keys(self):
        rng = np.random.default_rng(5)
        P = np.vstack([rng.uniform(-3, 3, (60, 3)), 1e9 * rng.uniform(-1, 1, (60, 3)),
                       rng.uniform(0, 0.2, (30, 3))])
        members, sizes = _cell_blocks(P, 0.2)
        got = [b.tolist() for b in np.split(members, np.cumsum(sizes)[:-1])]
        assert got == reference_blocks(P, 0.2)

    def test_temporaries_bounded(self):
        # 2.0 MB at n = 2000 in 3D (2.2 MB for the per-apex loop); holding
        # every apex's keys at once would take over 250 MB
        P = np.random.default_rng(11).uniform(0, 1, (2000, 3))
        tracemalloc.start()
        try:
            min_triangle_fast(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestProperties:
    def test_rigid_motion_invariance(self, rng):
        P = rng.uniform(0, 1, (40, 3))
        a0 = min_triangle_brute(P).area
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0],
                      [0, 0, 1]])
        Q = P @ R.T + np.array([0.3, -0.2, 0.1])
        assert min_triangle_brute(Q).area == pytest.approx(a0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.1, 3.0))
    def test_scaling_covariance(self, seed, lam):
        rng = np.random.default_rng(seed)
        P = rng.uniform(0, 1, (15, 2))
        a0 = min_triangle_brute(P).area
        a1 = min_triangle_brute(lam * P).area
        assert a1 == pytest.approx(lam**2 * a0, rel=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_packing_bound_random(self, dim, rng):
        for _ in range(25):
            n = int(rng.integers(8, 60))
            P = rng.uniform(0, 1, (n, dim))
            assert min_triangle_brute(P).area <= 100 * n ** (-2 / dim)


class TestGreedyPairs:
    def test_cardinality(self, rng):
        P = rng.uniform(0, 1, (8, 3))
        pairs, dists = greedy_close_pairs(P)
        assert len(pairs) == 2
        used = [i for p in pairs for i in p]
        assert len(set(used)) == 4

    def test_needs_eight(self, rng):
        with pytest.raises(ValueError):
            greedy_close_pairs(rng.uniform(0, 1, (7, 3)))

    def test_squared_distances_that_could_overflow_are_refused(self, rng):
        # d s^2 bounds a squared distance, s the spread; squaring the cell
        # side raised OverflowError
        P = rng.uniform(0, 1, (64, 3))
        assert np.isfinite(greedy_close_pairs(P * 1e150)[1]).all()
        with pytest.raises(FloatingPointError, match="squared distances overflow"):
            greedy_close_pairs(P * 1e155)

    def test_squared_distances_that_could_underflow_are_refused(self, rng):
        # the squared distances rounded to 0 and every pair length read 0
        P = rng.uniform(0, 1, (64, 3))
        assert (greedy_close_pairs(P * 1e-150)[1] > 0).all()
        with pytest.raises(FloatingPointError, match="squared distances underflow"):
            greedy_close_pairs(P * 1e-160)

    def test_clustered_distances(self, rng):
        P = 0.5 + 0.01 * rng.uniform(-1, 1, (32, 3))
        pairs, dists = greedy_close_pairs(P)
        assert np.max(dists) <= 0.04  # diameter of the cluster ball

    @pytest.mark.parametrize("n", [64, 512])
    def test_exact_closest_pair_oracle(self, n, rng):
        # each extracted pair is the exact closest among the survivors
        P = rng.uniform(0, 1, (n, 3))
        pairs, dists = greedy_close_pairs(P)
        alive = np.ones(n, dtype=bool)
        for (i, j), d in zip(pairs, dists):
            live = np.flatnonzero(alive)
            sub = P[live]
            dm = np.linalg.norm(sub[:, None] - sub[None, :], axis=2)
            np.fill_diagonal(dm, np.inf)
            assert d == pytest.approx(dm.min(), rel=1e-12)
            alive[i] = alive[j] = False

    @pytest.mark.parametrize("n", [8, 64, 512, 1280])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_rebuild_oracle(self, n, dim):
        P = np.random.default_rng(n * dim).uniform(0, 1, (n, dim))
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = rebuild_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)

    @pytest.mark.parametrize("seed", range(50))
    def test_duplicate_point_never_pairs_with_itself(self, seed):
        P = np.random.default_rng(seed).uniform(0, 1, (64, 3))
        P[10] = P[20]
        pairs, dists = greedy_close_pairs(P)
        assert all(i < j for i, j in pairs)
        used = [t for pair in pairs for t in pair]
        assert len(set(used)) == len(used)
        assert pairs[0] == (10, 20) and dists[0] == 0.0
        witness, _ = triangle_via_pointline(P)
        assert len(set(witness.indices)) == 3

    @pytest.mark.parametrize("dead", [None, "half"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 64, 512, 1024, 1280, 4096])
    def test_equals_kdtree_oracle(self, n, dim, seed, dead):
        # dead=None: the pairing.  dead="half": the search for the nearest
        # alive point, with a random half of the points dead as at the end of
        # the pairing, from every third point
        P = np.random.default_rng([n, dim, seed]).uniform(0, 1, (n, dim))
        if dead is None:
            pairs, dists = greedy_close_pairs(P)
            want_pairs, want_dists = kdtree_greedy_pairs(P)
            assert pairs == want_pairs
            assert np.array_equal(dists, want_dists)
            return
        live = np.sort(np.random.default_rng(seed).permutation(n)[:n // 2])
        alive = np.zeros(n, dtype=bool)
        alive[live] = True
        tree = cKDTree(P[live])
        grid = triangles._CellGrid(P)
        for i in range(0, n, 3):
            dd, jj = tree.query(P[i], k=2)
            d, j = next((d, int(live[j])) for d, j in zip(dd, jj) if live[j] != i)
            assert grid.nearest_alive(i, alive) == (d, i, j)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_far_from_origin_equals_kdtree_oracle(self, dim):
        # a small box far from the origin: cell keys come from differences
        # of large coordinates
        P = 1e6 + 1e-3 * np.random.default_rng(dim).uniform(0, 1, (700, dim))
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = kdtree_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_duplicate_pairs_equal_kdtree_oracle(self, dim, seed):
        # 40 points each appear twice: no two distances tie except the zeros,
        # which pair each point with its own copy
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 1, (40, dim))
        P = np.concatenate([base, base[rng.permutation(40)]])
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = kdtree_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)
        assert np.all(dists == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_repeated_points_equal_dense_oracle(self, dim):
        # a point repeated five times and all-equal sets: ties at 0 go to the
        # smallest j, then the smallest i
        rng = np.random.default_rng(dim)
        P = rng.uniform(0, 1, (60, dim))
        P[[3, 17, 29, 41, 58]] = P[17]
        for Q in (P, np.zeros((8, dim)), np.full((13, dim), 0.25)):
            pairs, dists = greedy_close_pairs(Q)
            want_pairs, want_dists = dense_greedy_pairs(Q)
            assert pairs == want_pairs
            assert np.array_equal(dists, want_dists)
        assert greedy_close_pairs(np.zeros((8, dim)))[0] == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_clustered_equals_dense_oracle(self, dim, seed):
        # half the points in a 1e-9 ball: one cell holds them all
        rng = np.random.default_rng(seed)
        P = rng.uniform(0, 1, (300, dim))
        P[:150] = 0.3 + 1e-9 * rng.uniform(-1, 1, (150, dim))
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = dense_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)

    @pytest.mark.parametrize("shape", [(12, 12), (7, 19), (6, 6, 6), (3, 5, 9)])
    def test_lattice_ties_equal_dense_oracle(self, shape):
        # every nearest distance ties: the smallest j wins for each i, the
        # smallest i among equal distances pairs first
        axes = [np.arange(k) / 8 for k in shape]
        P = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(shape))
        for Q in (P, P[np.random.default_rng(0).permutation(P.shape[0])]):
            pairs, dists = greedy_close_pairs(Q)
            want_pairs, want_dists = dense_greedy_pairs(Q)
            assert pairs == want_pairs
            assert np.array_equal(dists, want_dists)
        # row-major order: point 0's neighbours at 1/8 are points 1 and
        # shape[-1], ...; the smallest index wins
        assert greedy_close_pairs(P)[0][0] == (0, 1)

    @pytest.mark.parametrize("name", ["random3", "segment3", "plane3", "outlier2", "outlier3",
                                      "two_clusters3", "sparse_line2"])
    def test_grid_equals_dense(self, name):
        # sets that fill few cells of their bounding box: certified rows,
        # ring searches, whole-grid stops, crowded cells
        rng = np.random.default_rng(5)
        t = rng.uniform(0, 1, (400, 1))
        P = {
            "random3": rng.uniform(0, 1, (400, 3)),
            "segment3": t * np.array([[1.0, 2.0, -0.5]]),
            "plane3": np.column_stack([rng.uniform(0, 1, (400, 2)), np.zeros(400)]),
            "outlier2": np.vstack([rng.uniform(0, 1, (399, 2)), [[1000.0, -1000.0]]]),
            "outlier3": np.vstack([rng.uniform(0, 1, (399, 3)), [[50.0, 0.0, 50.0]]]),
            "two_clusters3": np.vstack([1e-6 * rng.uniform(0, 1, (200, 3)),
                                        5 + 1e-6 * rng.uniform(0, 1, (200, 3))]),
            "sparse_line2": np.column_stack([np.sort(rng.uniform(0, 1000, 400)),
                                             rng.uniform(0, 1e-3, 400)]),
        }[name]
        grid = triangles._CellGrid(P)
        sq = dense_sq_dists(P)
        np.fill_diagonal(sq, np.inf)
        # certified rows: the _ROW first j closer than the certified radius,
        # by (d2, j); the bound is the next one's d2 when there are more
        start, nbr, nd2, bound = grid.certified_rows()
        for i in range(P.shape[0]):
            row = np.flatnonzero(sq[i] < grid.safe ** 2)
            row = row[np.lexsort((row, sq[i, row]))]
            assert np.array_equal(nbr[start[i]:start[i + 1]], row[:triangles._ROW])
            assert np.array_equal(nd2[start[i]:start[i + 1]], sq[i, row[:triangles._ROW]])
            want = sq[i, row[triangles._ROW]] if row.size > triangles._ROW else grid.safe ** 2
            assert bound[i] == want
        # ring searches over all points and over a random alive half
        for alive in (np.ones(P.shape[0], dtype=bool), rng.uniform(size=P.shape[0]) < 0.5):
            masked = np.where(alive[None, :], sq, np.inf)
            for i in range(0, P.shape[0], 3):
                d, k, j = grid.nearest_alive(i, alive)
                assert (k, j) == (i, int(masked[i].argmin()))
                assert d == np.sqrt(masked[i].min())
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = dense_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)

    def test_outlier_keeps_cells_small(self):
        # 4095 points in the unit cube and one at (1000, 1000, 1000): a side
        # from the bounding box would put the 4095 into one cell (k^2
        # distance evaluations), the percentile spread gives cells of a few
        # points
        rng = np.random.default_rng(0)
        P = np.vstack([rng.uniform(0, 1, (4095, 3)), [[1000.0, 1000.0, 1000.0]]])
        assert np.diff(triangles._CellGrid(P).index.head).max() <= 16
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = rebuild_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_identical_bulk_falls_back_to_extent(self, dim):
        # 198 of 200 points equal, one below and one above them on every
        # axis: the 1st-99th percentile spread is 0, so the side is the
        # bounding-box extent over round(n^(1/d))
        rng = np.random.default_rng(dim)
        P = np.vstack([np.full((198, dim), 0.25), [[0.0, 0.1, 0.2][:dim], [1.7, 1.2, 0.9][:dim]]])
        P = P[rng.permutation(200)]
        grid = triangles._CellGrid(P)
        extent = float(np.ptp(P, axis=0).max())
        assert grid.safe == extent / round(200 ** (1 / dim)) * (1.0 - triangles._RING_SLACK)
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = dense_greedy_pairs(P)
        assert pairs == want_pairs
        assert np.array_equal(dists, want_dists)

    def test_certified_radius_is_one_side(self):
        # corners fix the box to [0, 4]^2 and 16 points give a cell side of
        # 1.  x's nearest point y lies 1.0002 away two cells over, outside
        # x's radius-1 cube; z lies 1.0005 away inside it, so a certified
        # radius above 1.0005 sides would return z
        x, y = (0.9999, 2.5), (2.0001, 2.5)
        z = (1.5, 2.5 + np.sqrt(1.0005**2 - 0.5001**2))
        far = [(0, 0), (4, 4), (4, 0), (0.2, 0.3), (3.5, 0.4), (3.6, 1.4), (2.8, 0.2),
               (3.9, 3.1), (2.9, 3.6), (0.3, 0.9), (1.9, 0.6), (0.1, 4.0), (3.4, 2.2)]
        P = np.array([x, y, z] + far, dtype=float)
        grid = triangles._CellGrid(P)
        assert grid.safe < 1.0 and 1.0 - grid.safe < 1e-6
        d, _, j = grid.nearest_alive(0, np.ones(len(P), dtype=bool))
        assert j == 1 and d == np.sqrt(dense_sq_dists(P)[0, 1])
        start, nbr, _, _ = grid.certified_rows()
        assert 2 not in nbr[start[0]:start[1]]
        pairs, dists = greedy_close_pairs(P)
        want_pairs, want_dists = dense_greedy_pairs(P)
        assert pairs == want_pairs and np.array_equal(dists, want_dists)

    def test_blocks_bounded_and_split_per_point(self, monkeypatch):
        # blocks of at most _CHUNK candidate pairs, one point alone when its
        # candidates are more; the result does not depend on the block size
        P = np.random.default_rng(9).uniform(0, 1, (600, 3))
        P[:100] = 0.5
        want = greedy_close_pairs(P)
        sizes = []
        real = triangles._sq_dists

        def spy(X, Y):
            out = real(X, Y)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(triangles, "_sq_dists", spy)
        triangles._CellGrid(P).certified_rows()
        assert max(sizes) <= geometry._CHUNK
        largest = {}
        for chunk in (1, 50, 1000):
            sizes.clear()
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
            triangles._CellGrid(P).certified_rows()
            largest[chunk] = max(sizes)
            pairs, dists = greedy_close_pairs(P)
            assert pairs == want[0] and np.array_equal(dists, want[1])
        # each of the 100 copies scores the other 99 and its neighbours
        assert largest[50] >= 99 and largest[1000] <= 1000

    @pytest.mark.parametrize("P", [np.zeros(16), np.zeros((16, 1)), np.zeros((16, 4)),
                                   np.zeros((2, 8, 2))],
                             ids=["1d", "n1", "n4", "3d-array"])
    def test_rejects_bad_shapes(self, P):
        with pytest.raises(ValueError, match="array"):
            greedy_close_pairs(P)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        P = np.random.default_rng(0).uniform(0, 1, (16, 3))
        P[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            greedy_close_pairs(P)

    def test_rejects_overflowing_extent(self):
        P = np.random.default_rng(0).uniform(-1, 1, (16, 2)) * 1e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="float range"):
            greedy_close_pairs(P)

    def test_distance_constant(self, rng):
        n = 4096
        P = rng.uniform(0, 1, (n, 3))
        pairs, dists = greedy_close_pairs(P)
        C = np.max(dists) * n ** (1 / 3) / 2
        assert C <= 10


def inline_pipeline(P):
    """The point-line loop triangle_via_pointline ran inline before it shared
    the loop of min_config_distance: (config_distance, sorted triangle, area)."""
    pairs, _ = greedy_close_pairs(P)
    anchors = np.array([P[i] for i, _ in pairs])
    lines = [Line(P[i], P[j] - P[i]) for i, j in pairs]
    best = np.inf
    wit = (0, 1)
    for b, line in enumerate(lines):
        dd = _points_lines_block(anchors, line.base[None], line.dir[None])[0]
        dd[b] = np.inf
        a = int(np.argmin(dd))
        if dd[a] < best:
            best = float(dd[a])
            wit = (a, b)
    a, b = wit
    tri = (pairs[a][0], pairs[b][0], pairs[b][1])
    return best, tuple(sorted(tri)), triangle_area(P[tri[0]], P[tri[1]], P[tri[2]])


class TestPipeline:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 33, 256])
    def test_matches_inline_loop(self, n, dim):
        P = np.random.default_rng(31 * n + dim).uniform(0, 1, (n, dim))
        witness, rep = triangle_via_pointline(P)
        best, tri, area = inline_pipeline(P)
        assert rep.config_distance == best
        assert witness.indices == tri and witness.area == area

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_inline_loop_on_lattice(self, dim):
        # equal pair lengths and collinear anchors: ties everywhere, so the
        # first-argmin / strict-improvement order decides the witness
        k = 8 if dim == 2 else 4
        P = np.stack(np.meshgrid(*[np.arange(k) / k] * dim, indexing="ij"), -1).reshape(-1, dim)
        witness, rep = triangle_via_pointline(P)
        best, tri, area = inline_pipeline(P)
        assert rep.config_distance == best
        assert witness.indices == tri and witness.area == area

    @pytest.mark.parametrize("factor,message", [(1e100, "triangle areas overflow"),
                                                (1e-150, "triangle areas underflow"),
                                                (1e155, "squared distances overflow"),
                                                (1e-160, "squared distances underflow")])
    def test_refuses_before_pairing(self, factor, message, rng, monkeypatch):
        # the area checks ran only after greedy_close_pairs had paired every point
        def pairing(P):
            raise AssertionError("greedy_close_pairs called")

        monkeypatch.setattr(triangles, "greedy_close_pairs", pairing)
        with pytest.raises(FloatingPointError, match=message):
            triangle_via_pointline(rng.uniform(0, 1, (64, 3)) * factor)

    def test_duplicate_point_zero_path(self, rng):
        P = rng.uniform(0, 1, (64, 3))
        P[10] = P[20]
        witness, report = triangle_via_pointline(P)
        assert witness.area == 0.0
        assert witness.indices == (0, 10, 20)

    def test_bound_identity(self, rng):
        # returned area <= max pair length * realized distance / 2 exactly
        P = rng.uniform(0, 1, (256, 3))
        witness, rep = triangle_via_pointline(P)
        assert witness.area <= rep.area_bound * (1 + 1e-9)
        assert rep.area_bound == pytest.approx(
            rep.max_pair_length * rep.config_distance / 2)

    def test_witness_area_consistent(self, rng):
        P = rng.uniform(0, 1, (128, 3))
        witness, _ = triangle_via_pointline(P)
        i, j, k = witness.indices
        assert witness.area == pytest.approx(triangle_area(P[i], P[j], P[k]), abs=1e-12)

    def test_slope_baseline(self):
        # log-log slope of the pipeline area against n stays below -2/3 + 0.15
        by_n = {}
        for n in (64, 128, 256, 512, 1024):
            vals = []
            for seed in range(3):
                rng = np.random.default_rng(1000 * n + seed)
                witness, _ = triangle_via_pointline(rng.uniform(0, 1, (n, 3)))
                if witness.area > 0:
                    vals.append(witness.area)
            by_n[n] = vals
        from heilbronn.search import exponent_estimate
        fit = exponent_estimate(by_n)
        assert fit.slope <= -2 / 3 + 0.15
