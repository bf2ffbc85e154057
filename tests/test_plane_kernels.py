"""Bit-equality oracles for the kernels that run one coordinate plane at a time.

The point-line distances, the direction and skew-line rows, the point rows
of `ConfigMetrics`, the box-local differences of `concentration._box_counts`,
the axial coordinates of `tubes._lattice_net` and the apex vectors of
`triangles._apex_groups` are formed one coordinate plane at a time, so that
no numpy loop runs over the 2 or 3 coordinates of a single row, and every row
norm goes through `geometry._row_norms`.  Each BLAS product keeps its shapes
and strides.  The `old_*` functions are test-local copies of the broadcast
forms they replaced; the new code must return their arrays bit for bit
(`np.array_equal`).  Each row of a block of `geometry._point_line_blocks`
must equal the one-line `_points_lines_block` call the same way.
"""

import numpy as np
import pytest

from heilbronn import concentration
from heilbronn import tubes as tubes_mod
from heilbronn.concentration import ConfigMetrics, _box_halves
from heilbronn.geometry import (
    _CHUNK,
    _direction_rows,
    _point_line_blocks,
    _point_lines_rows,
    _points_lines_block,
    _row_norms,
    _skew_gaps,
    canonical_direction,
    complete_frame,
)
from heilbronn.triangles import _apex_groups
from heilbronn.tubes import Tube2D

from conftest import random_config

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300,
           np.inf, -np.inf, np.nan]

# ---------------------------------------------------------------------------
# test-local copies of the replaced broadcast forms


def old_points_lines_block(P, bases, dirs):
    U = P[None, :, :] - bases[:, None, :]
    t = np.matmul(U, dirs[:, :, None])
    return np.linalg.norm(U - t * dirs[:, None, :], axis=2)


def old_point_lines_rows(p, bases, dirs):
    U = p - bases
    t = np.einsum("ij,ij->i", U, dirs)
    return np.linalg.norm(U - t[:, None] * dirs, axis=1)


def old_direction_rows(dirs, v):
    return np.minimum(np.linalg.norm(dirs - v, axis=1), np.linalg.norm(dirs + v, axis=1))


def old_skew_gaps(b1, v1, bases, dirs):
    n = np.cross(v1, dirs)
    nn = np.linalg.norm(n, axis=1)
    parallel = nn < 1e-12
    return parallel, np.abs(np.einsum("ij,ij->i", bases - b1, n)) / np.where(parallel, 1.0, nn)


def old_lattice_axial(tubes, dilate, h):
    # the broadcast centring, then the sum in coordinate order of tubes._axial
    for t in tubes:
        ix, lo, c = tubes_mod._lattice_spans(t.center, t.dir, dilate * t.length,
                                             dilate * t.width, h)
        k = np.arange(int(c.sum()))
        start = np.cumsum(c) - c
        pts = np.empty((k.size, 2))
        pts[:, 0] = np.repeat(ix * h, c)
        pts[:, 1] = (k + np.repeat(lo - start, c)) * h
        pts -= t.center
        yield pts[:, 0] * t.dir[0] + pts[:, 1] * t.dir[1]


# ---------------------------------------------------------------------------


def awkward(rng, shape):
    """Coordinates of magnitude 1e-5 to 1e5, a quarter of them replaced by
    zeros, subnormals, 1e+-300, +-inf and nan."""
    X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)
    special = rng.random(shape) < 0.25
    X[special] = rng.choice(SPECIAL, np.count_nonzero(special))
    return X


def unit_rows(rng, m, d):
    return np.array([canonical_direction(v) for v in rng.normal(size=(m, d))])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lead", [(4096,), (16, 256), (64, 63), (1,)])
def test_row_norms_equal_linalg_norm(d, lead):
    X = awkward(np.random.default_rng(d * 100 + len(lead)), lead + (d,))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = _row_norms(X), np.linalg.norm(X, axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 700), (700, 1), (37, 211),
                                 (16, _CHUNK // 16), (1, _CHUNK)])
def test_points_lines_block_equals_broadcast(d, m, n):
    rng = np.random.default_rng(7 * m + n + d)
    P = rng.uniform(-1, 2, (n, d))
    bases, dirs = rng.uniform(0, 1, (m, d)), unit_rows(rng, m, d)
    assert np.array_equal(_points_lines_block(P, bases, dirs),
                          old_points_lines_block(P, bases, dirs))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m,n", [(1, 50), (40, 300), (57, 1000), (3, _CHUNK + 5)])
def test_point_line_blocks_equal_one_line_calls(d, m, n):
    # one line; several lines a block with a short last block (300 points:
    # 54 lines a block; 1000 points: 16 lines a block, 57 = 3 * 16 + 9); one
    # line a block when there are more points than _CHUNK
    rng = np.random.default_rng(3 * m + n + d)
    P = rng.uniform(-1, 2, (n, d))
    bases, dirs = rng.uniform(0, 1, (m, d)), unit_rows(rng, m, d)
    sizes = []
    for lo, D in _point_line_blocks(P, bases, dirs):
        sizes.append(D.shape[0])
        assert D.shape[1] == n and (D.size <= _CHUNK or D.shape[0] == 1)
        for k in range(D.shape[0]):
            j = lo + k
            assert np.array_equal(D[k], _points_lines_block(P, bases[j:j + 1], dirs[j:j + 1])[0])
    assert sum(sizes) == m and len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
    assert len(sizes) == -(-m // max(1, _CHUNK // n))


@pytest.mark.parametrize("d", [2, 3])
def test_line_rows_equal_broadcast(d):
    rng = np.random.default_rng(d)
    bases, dirs = rng.uniform(0, 1, (3000, d)), unit_rows(rng, 3000, d)
    dirs[::7] = dirs[0]  # parallel pairs
    p, v = rng.uniform(0, 1, d), dirs[0]
    assert np.array_equal(_point_lines_rows(p, bases, dirs), old_point_lines_rows(p, bases, dirs))
    assert np.array_equal(_direction_rows(dirs, v), old_direction_rows(dirs, v))
    assert np.array_equal(_direction_rows(dirs, dirs[::-1]), old_direction_rows(dirs, dirs[::-1]))
    if d == 3:
        for got, want in zip(_skew_gaps(bases[0], v, bases, dirs),
                             old_skew_gaps(bases[0], v, bases, dirs)):
            assert np.array_equal(got, want)


def test_config_metrics_point_rows_equal_broadcast():
    cfg = random_config(300, 3, seed=4)
    P = cfg.points()
    want = np.array([np.linalg.norm(P - P[i], axis=1) for i in range(len(cfg))])
    assert np.array_equal(ConfigMetrics(cfg).point_dist, want)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("C,n", [(1, 1), (40, 300), (3, _CHUNK + 5)])
def test_box_counts_local_coordinates_equal_broadcast(monkeypatch, d, C, n):
    rng = np.random.default_rng(C + n + d)
    bases, dirs = rng.uniform(0, 1, (n, d)), unit_rows(rng, n, d)
    centers = rng.uniform(0, 1, (C, d))
    frames = np.array([complete_frame(v) for v in unit_rows(rng, C, d)])
    blocks = []
    inner = concentration._chords_from_local

    def spy(B, V, half, reach):
        if not blocks or blocks[-1] is not B:
            blocks.append(B)
        return inner(B, V, half, reach)

    monkeypatch.setattr(concentration, "_chords_from_local", spy)
    concentration._box_counts(bases, dirs, 0.5, centers, frames,
                              _box_halves([(0.125, 0.25), (0.25, 0.5)], d))
    k0 = 0
    for B in blocks:
        blk = slice(k0, k0 + B.shape[0])
        assert np.array_equal(B, (bases - centers[blk, None]) @ frames[blk].transpose(0, 2, 1))
        k0 = blk.stop
    assert k0 == C


@pytest.mark.parametrize("dilate", [1.0, 2.0])
def test_lattice_net_axial_equals_broadcast(dilate):
    rng = np.random.default_rng(3)
    delta = 2**-5
    tubes = [Tube2D(rng.uniform(0.1, 0.9, 2), rng.normal(size=2), delta, 1.0)
             for _ in range(12)]
    tubes.append(Tube2D([-1.0, 1.5], [1, 1e-16], delta, 0.5))
    _, _, nets = tubes_mod._lattice_net(tubes, dilate, delta / 10.0)
    for (_, got), want in zip(nets(), old_lattice_axial(tubes, dilate, delta / 10.0)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_apex_groups_equal_broadcast(d):
    rng = np.random.default_rng(d)
    P = rng.uniform(0, 1, (60, d))
    P[17] = P[3]  # two apices whose groups come one at a time
    groups = list(_apex_groups(P, 8))
    assert sum(ia.size for ia, *_ in groups) == 60
    for ia, others, rel, norms in groups:
        want = P[others] - P[ia, None, :]
        assert np.array_equal(rel, want)
        assert np.array_equal(norms, np.linalg.norm(want, axis=-1))
