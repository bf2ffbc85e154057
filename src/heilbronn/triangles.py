"""Minimum triangle area functionals and the pairing pipeline.

The exact minimizer comes in two flavours: a cubic brute force and a pruned
search that first settles all small-diameter triangles with a grid pass and
then catches thin large-diameter triangles through near-parallel direction
hashing from every apex.  Both return the same minimal value on any input.

The pipeline builds disjoint close point pairs, turns them into a point-line
configuration, and reads off a small triangle from the configuration's
minimal distance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .configurations import _nearest_point_line
from .geometry import Line


@dataclass(frozen=True)
class TriangleWitness:
    """Index triple (i < j < k) into the point set and its triangle area."""

    indices: tuple[int, int, int]
    area: float


@dataclass(frozen=True)
class PairPipelineReport:
    """Diagnostics from the close-pair to point-line pipeline."""

    n_points: int
    n_pairs: int
    max_pair_length: float
    config_distance: float
    area_bound: float
    pair_length_constant: float


def triangle_area(a, b, c) -> float:
    """Area of the triangle abc via the cross product."""
    a = np.asarray(a, dtype=float)
    u = np.asarray(b, dtype=float) - a
    v = np.asarray(c, dtype=float) - a
    if a.shape[0] == 2:
        return abs(u[0] * v[1] - u[1] * v[0]) / 2.0
    return float(np.linalg.norm(np.cross(u, v)) / 2.0)


def _pair_cross_blocks(B: np.ndarray):
    """Pairwise |B_j x B_k| for all j, k rows of B (2D scalar or 3D norm)."""
    def cross(a, b):
        c = np.multiply.outer(B[:, a], B[:, b])
        c -= np.multiply.outer(B[:, b], B[:, a])
        return c

    if B.shape[1] == 2:
        cz = cross(0, 1)
        return np.abs(cz, out=cz)
    # in place, in the operation order of sqrt(cx*cx + cy*cy + cz*cz)
    cx, cy, cz = cross(1, 2), cross(2, 0), cross(0, 1)
    cx *= cx
    cy *= cy
    cx += cy
    cz *= cz
    cx += cz
    return np.sqrt(cx, out=cx)


@lru_cache(maxsize=32)
def _triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only np.triu_indices(m, 1), built once per size."""
    ju, ku = np.triu_indices(m, 1)
    ju.flags.writeable = ku.flags.writeable = False
    return ju, ku


def _upper_argmin(C: np.ndarray, lower: np.ndarray) -> tuple[int, int, float]:
    """First row-major minimum of the square C over j < k, as (j, k, value).

    `lower` is np.tri(M, dtype=bool) for some M >= len(C); its top-left block
    masks the entries j >= k, which are overwritten with inf, so the first
    minimum of the whole array is the lexicographically first upper one.
    """
    m = C.shape[0]
    np.copyto(C, np.inf, where=lower[:m, :m])
    pos = int(np.argmin(C))
    j, k = divmod(pos, m)
    return j, k, float(C[j, k])


def min_triangle_brute(P) -> TriangleWitness:
    """Exact minimizer over all C(n,3) triples, lexicographic tie-break."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    lower = np.tri(n - 1, dtype=bool)
    best2 = np.inf  # twice the best area
    witness = (0, 1, 2)
    for i in range(n - 2):
        # C stays bound until the next block exists: freeing a large block
        # first lets malloc hand its pages back, and the next one faults them in
        C = _pair_cross_blocks(P[i + 1:] - P[i])
        j, k, block_min = _upper_argmin(C, lower)
        if block_min < best2:
            best2 = block_min
            witness = (i, i + 1 + j, i + 1 + k)
    return TriangleWitness(indices=witness, area=best2 / 2.0)


def _bucket_indices(P: np.ndarray, cell: float) -> dict:
    keys = np.floor(P / cell).astype(np.int64)
    buckets: dict[tuple, list[int]] = {}
    for idx, key in enumerate(map(tuple, keys)):
        buckets.setdefault(key, []).append(idx)
    return buckets


def _local_min_pass(P: np.ndarray, cell: float) -> TriangleWitness:
    """Exact minimum over triangles of diameter <= cell via 3^d block sweeps."""
    d = P.shape[1]
    buckets = _bucket_indices(P, cell)
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    best = np.inf
    witness = None
    for key in buckets:
        idx = []
        for off in offsets:
            idx.extend(buckets.get(tuple(np.array(key) + off), ()))
        if len(idx) < 3:
            continue
        idx = sorted(idx)
        sub = P[idx]
        w = min_triangle_brute(sub) if len(idx) >= 3 else None
        if w is not None and w.area < best:
            best = w.area
            witness = tuple(sorted(idx[t] for t in w.indices))
    if witness is None:
        return TriangleWitness(indices=(0, 1, 2), area=np.inf)
    return TriangleWitness(indices=witness, area=best)


def min_triangle_fast(P) -> TriangleWitness:
    """Same minimal value as min_triangle_brute with grid/direction pruning.

    Every triangle beating the incumbent either has small diameter (caught by
    the local grid pass) or, seen from the vertex between its two longest
    sides, spans a near-degenerate angle; those apex direction pairs are
    found by hashing normalized directions on a grid of the angular
    threshold.
    """
    P = np.asarray(P, dtype=float)
    n, d = P.shape
    if n < 3:
        raise ValueError("need at least 3 points")
    if n <= 120:
        return min_triangle_brute(P)

    cell = max(n ** (-1.0 / d), 1e-6)
    local = _local_min_pass(P, cell)
    best, witness = local.area, local.indices
    if best == 0.0:
        return TriangleWitness(indices=witness, area=0.0)

    sin_thresh = min(1.0, 4.0 * best / (cell * cell))
    h = 1.5 * sin_thresh  # chordal hash cell; 2 sin(theta/2) <= sqrt(2) sin(theta)
    if h >= 2.0:
        return min_triangle_brute(P)

    def canonical_area(i, j, k) -> float:
        """Area with the same formula and base vertex order as the brute force."""
        i, j, k = sorted((i, j, k))
        B = np.stack([P[j] - P[i], P[k] - P[i]])
        return float(_pair_cross_blocks(B)[0, 1]) / 2.0

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
        # one sort over all shifted grids; the shift index rides in the key
        keys = np.floor(dirs / h + shifts[:, None, :]).astype(np.int64)
        packed = keys[..., 0]
        for ax in range(1, d):
            packed = packed * 1_000_003 + keys[..., ax]
        packed = packed * n_shift + np.arange(n_shift)[:, None]
        flat = packed.ravel()
        order = np.argsort(flat, kind="stable")
        sp = flat[order]
        m_ok = dirs.shape[0]

        # candidate pairs: consecutive entries of equal key, plus full blocks
        # for the rare runs of length >= 3
        consec = sp[1:] == sp[:-1]
        u_loc = order[:-1][consec] % m_ok
        v_loc = order[1:][consec] % m_ok
        run_break = np.flatnonzero(~consec) + 1
        starts = np.concatenate([[0], run_break])
        ends = np.concatenate([run_break, [len(sp)]])
        big = np.flatnonzero(ends - starts >= 3)
        extra_u, extra_v = [], []
        for g in big:
            members = np.unique(order[starts[g]:ends[g]] % m_ok)
            ju, ku = _triu_pairs(members.size)
            extra_u.append(members[ju])
            extra_v.append(members[ku])
        if extra_u:
            u_loc = np.concatenate([u_loc] + extra_u)
            v_loc = np.concatenate([v_loc] + extra_v)
        if u_loc.size == 0:
            continue
        pair_key = np.minimum(u_loc, v_loc) * n + np.maximum(u_loc, v_loc)
        _, uniq = np.unique(pair_key, return_index=True)
        u_loc, v_loc = u_loc[uniq], v_loc[uniq]

        su = rel[ok][u_loc]
        sv = rel[ok][v_loc]
        if d == 2:
            vals = np.abs(su[:, 0] * sv[:, 1] - su[:, 1] * sv[:, 0]) / 2.0
        else:
            vals = np.linalg.norm(np.cross(su, sv), axis=1) / 2.0
        for pos in np.flatnonzero(vals <= best * (1.0 + 1e-9)):
            a_idx, b_idx = int(others[u_loc[pos]]), int(others[v_loc[pos]])
            cand = canonical_area(i, a_idx, b_idx)
            if cand < best:
                best = cand
                witness = tuple(sorted((i, a_idx, b_idx)))
    return TriangleWitness(indices=witness, area=float(best))


def _nearest_alive(tree: cKDTree, P: np.ndarray, i: int, alive: np.ndarray):
    """Heap entry (distance, i, j) for the nearest alive j != i, found by
    querying the full tree with k doubling until an alive neighbour shows."""
    n = P.shape[0]
    k = 4
    while True:
        k = min(k, n)
        dd, jj = tree.query(P[i], k=k)
        hit = np.flatnonzero(alive[jj] & (jj != i))
        if hit.size:
            t = hit[0]
            return float(dd[t]), i, int(jj[t])
        k *= 2


def greedy_close_pairs(P, n_pairs: int | None = None):
    """Extract floor(n/4) (or `n_pairs`) disjoint closest-available point pairs.

    Each round removes the exact closest remaining pair, matching the
    pigeonhole covering radius with the remaining count.  One kd-tree over
    all points serves every round: a lazy heap holds, per alive point i, an
    entry (distance, i, j) to a neighbour j that was its nearest alive one
    when queried.  Points only die, so a popped entry whose i and j are both
    alive is the exact closest remaining pair; an entry with a dead i is
    dropped, and one with a dead j is re-queried for the nearest alive
    neighbour other than i (excluded by index, so a duplicate point never
    pairs with itself).  Among equal distances the smallest i wins.  Cost
    about O(n log n), against O(n^2 log n) for a tree rebuilt each round.
    Returns (pairs, distances) with pairs as (i, j) index tuples, i < j.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if n < 8:
        raise ValueError("need at least 8 points")
    m = n // 4 if n_pairs is None else n_pairs
    if m > n // 2:
        raise ValueError(f"n_pairs={m} exceeds n // 2 = {n // 2}")
    tree = cKDTree(P)
    dd, jj = tree.query(P, k=2)
    # column 0 is i itself unless a duplicate of i came first
    rows = np.arange(n)
    col = (jj[:, 0] == rows).astype(np.intp)
    heap = list(zip(dd[rows, col].tolist(), range(n), jj[rows, col].tolist()))
    heapq.heapify(heap)
    alive = np.ones(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    dists: list[float] = []
    while len(pairs) < m:
        d, i, j = heapq.heappop(heap)
        if not alive[i]:
            continue
        if not alive[j]:
            heapq.heappush(heap, _nearest_alive(tree, P, i, alive))
            continue
        pairs.append((min(i, j), max(i, j)))
        dists.append(d)
        alive[i] = alive[j] = False
    return pairs, np.array(dists)


def triangle_via_pointline(P) -> tuple[TriangleWitness, PairPipelineReport]:
    """Pairing pipeline: close pairs -> point-line configuration -> triangle.

    The returned triangle (p_i, p_j, q_j) has area exactly half the product
    of the pair length |p_j q_j| and the realized minimal distance, hence
    area <= max_pair_length * distance / 2 by construction.
    """
    P = np.asarray(P, dtype=float)
    n, d = P.shape
    pairs, dists = greedy_close_pairs(P)
    m = len(pairs)
    max_len = float(np.max(dists))
    const = max_len * n ** (1.0 / d) / 2.0

    for (i, j), dist in zip(pairs, dists):
        if dist == 0.0:
            k = next(t for t in range(n) if t not in (i, j))
            tri = tuple(sorted((i, j, k)))
            report = PairPipelineReport(n, m, max_len, 0.0, 0.0, const)
            return TriangleWitness(indices=tri, area=0.0), report

    anchors = np.array([P[i] for i, _ in pairs])
    lines = [Line(P[i], P[j] - P[i]) for i, j in pairs]
    best, (a, b) = _nearest_point_line(anchors, lines)
    tri_pts = (pairs[a][0], pairs[b][0], pairs[b][1])
    area = triangle_area(P[tri_pts[0]], P[tri_pts[1]], P[tri_pts[2]])
    bound = max_len * best / 2.0
    report = PairPipelineReport(n_points=n, n_pairs=m, max_pair_length=max_len,
                                config_distance=best, area_bound=bound,
                                pair_length_constant=const)
    return TriangleWitness(indices=tuple(sorted(tri_pts)), area=float(area)), report
