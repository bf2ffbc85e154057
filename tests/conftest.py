import numpy as np
import pytest

from heilbronn.concentration import _box_counts, _box_halves, _need_reach
from heilbronn.configurations import make_config
from heilbronn.geometry import Line, _chords_from_local, _line_metric_pairs
from heilbronn.tubes import _axial


def eta_table(prof, t):
    """eta_1 at radii t, read from the kernel table of `prof` (0 beyond it)."""
    return np.interp(np.asarray(t, dtype=float), prof.eta_grid, prof.eta_values,
                     left=prof.eta_values[0], right=0.0)


def random_config(n, dim, seed, spread=1.0):
    """Random incident point-line pairs in the unit cube."""
    rng = np.random.default_rng(seed)
    pts = 0.5 + spread * (rng.uniform(0, 1, (n, dim)) - 0.5)
    lines = [Line(p, rng.normal(size=dim)) for p in pts]
    return make_config(pts, lines)


def separated_config(n_target, dim, seed, K=8, levels=3, step=5):
    """Configuration whose points occupy hierarchically separated cubes.

    At every scale K^-j the occupied cube indices are multiples of `step`
    per axis, so cubes in the cover are pairwise (step-1) * K^-j separated
    and the uniformizer's parity-class selection can retain everything.
    Requires step < K.
    """
    assert step < K
    rng = np.random.default_rng(seed)
    digits = np.arange(0, K, step)
    pts = []
    for _ in range(n_target):
        x = np.zeros(dim)
        for j in range(1, levels + 1):
            d = rng.choice(digits, size=dim)
            x = x + d * float(K) ** -j
        x = x + rng.uniform(0, 0.9 * float(K) ** -levels, size=dim)
        pts.append(x)
    pts = np.array(pts)
    lines = [Line(p, rng.normal(size=dim)) for p in pts]
    return make_config(pts, lines)


def cross_block(B):
    """Pairwise |B_j x B_k| over the rows of B, computed out of place: a
    reference for the slices of triangles._upper_min."""
    if B.shape[1] == 2:
        return np.abs(np.multiply.outer(B[:, 0], B[:, 1]) - np.multiply.outer(B[:, 1], B[:, 0]))
    cx = np.multiply.outer(B[:, 1], B[:, 2]) - np.multiply.outer(B[:, 2], B[:, 1])
    cy = np.multiply.outer(B[:, 2], B[:, 0]) - np.multiply.outer(B[:, 0], B[:, 2])
    cz = np.multiply.outer(B[:, 0], B[:, 1]) - np.multiply.outer(B[:, 1], B[:, 0])
    return np.sqrt(cx * cx + cy * cy + cz * cz)


def line_metric_rows(b1, v1, bases, dirs):
    """The line metric from the line (b1, v1) to each (base, dir) row, pair by
    pair through `_line_metric_pairs` (as ConfigMetrics builds it)."""
    return _line_metric_pairs(np.broadcast_to(b1, bases.shape), np.broadcast_to(v1, dirs.shape),
                              bases, dirs)


def line_metric_many(line, bases, dirs):
    """line_metric from one line to many lines given as (n, d) base/dir arrays."""
    return line_metric_rows(line.base, line.dir, np.asarray(bases, dtype=float),
                            np.asarray(dirs, dtype=float))


def lines_box_chords(bases, dirs, box):
    """line_box_chord over (n, d) base/dir arrays, through the box counter's
    clipping (`_chords_from_local`)."""
    B = (np.asarray(bases, dtype=float) - box.center) @ box.frame.T
    V = np.asarray(dirs, dtype=float) @ box.frame.T
    return _chords_from_local(B, V, box.half_extents[None])[0]


def box_counts(bases, dirs, lengths, centers, frames, scales):
    """(C, S) counts of the boxes (centers (C, d), frames (C, d, d)) at each
    (u, w) of `scales`, through the box search's counter: members count as
    the search counts them, lines when `lengths` is None."""
    d = bases.shape[1]
    need, reach = _need_reach(lengths, d)
    return _box_counts(bases, dirs, need, centers, frames, _box_halves(scales, d), reach)


def random_lines(n, dim, seed):
    rng = np.random.default_rng(seed)
    return [Line(rng.uniform(0, 1, dim), rng.normal(size=dim)) for _ in range(n)]


def net_points(tubes, spans, h):
    """Each tube's net ids and axial coordinates (`tubes._axial`), expanded
    from its column spans (`tubes._lattice_net`) one column at a time."""
    for t, (ix, lo, c, first) in zip(tubes, spans):
        cols = [(np.arange(f, f + k), _axial(t, np.full(k, x), np.arange(y, y + k), h))
                for x, y, k, f in zip(ix, lo, c, first)]
        yield (np.concatenate([ids for ids, _ in cols] or [np.empty(0, np.int64)]),
               np.concatenate([ax for _, ax in cols] or [np.empty(0)]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
