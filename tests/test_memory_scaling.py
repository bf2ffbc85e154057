"""Memory that grows with the input no faster than the input itself.

Each row measures the tracemalloc peak of one call at n and at 4n inputs,
built before tracing starts, and requires the larger peak to be at most 6
times the smaller: a hidden n x n array would grow 16 times.  The small call
runs once untraced first, so tables cached on first use (the kernel
profiles) do not count.
"""

import tracemalloc

import numpy as np
import pytest

from heilbronn.concentration import m_config
from heilbronn.configurations import make_config, min_config_distance
from heilbronn.geometry import Line
from heilbronn.incidence import incidence_many
from heilbronn.triangles import min_triangle_brute, triangle_via_pointline
from heilbronn.tubes import Tube2D, two_ends_decompose

GROWTH = 6.0


def _config(n, dim, seed):
    rng = np.random.default_rng(seed)
    P = rng.uniform(0, 1, (n, dim))
    return make_config(P, [Line(p, v) for p, v in zip(P, rng.normal(size=(n, dim)))])


def _incidence_input(n, dim, seed):
    rng = np.random.default_rng(seed)
    lines = [Line(p, v) for p, v in zip(rng.uniform(0, 1, (n, dim)), rng.normal(size=(n, dim)))]
    return rng.uniform(0, 1, (n, dim)), lines


def _pencil(n):
    angles = np.linspace(0, np.pi, n, endpoint=False)
    return [Tube2D([0.5, 0.5], [np.cos(a), np.sin(a)], 2**-6, 1.0) for a in angles]


def _two_ends(tubes):
    # the exact net and at least one excision round, so the row measures them
    res = two_ends_decompose(tubes, 2**-6, 0.25, rich_constant=0.1)
    assert res.exact_net and res.rounds_run >= 1


def _peak(call, arg):
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (function of one input, input builder of n, n), one row per function
ROWS = [
    pytest.param(min_config_distance, lambda n: _config(n, 3, n), 1000, id="min_config_distance"),
    pytest.param(triangle_via_pointline,
                 lambda n: np.random.default_rng(n).uniform(0, 1, (n, 3)), 2048,
                 id="triangle_via_pointline"),
    pytest.param(lambda a: incidence_many([0.05, 0.1], *a, 3),
                 lambda n: _incidence_input(n, 3, n), 500, id="incidence_many"),
    # allocated an (n - 1)^2 cross-product block per apex: 2.5 -> 39.1 MB for
    # n = 250 -> 1000
    pytest.param(min_triangle_brute, lambda n: np.random.default_rng(n).uniform(0, 1, (n, 3)),
                 100, id="min_triangle_brute"),
    pytest.param(_two_ends, _pencil, 12, id="two_ends_decompose"),
    # ConfigMetrics holds n x n matrices: 6.5 -> 99.2 MB for n = 500 -> 2000;
    # a sparse pair engine (ROADMAP item 13) is to bound them.  Its pair blocks
    # take about 1-1.5 MB whatever n, which hides the matrices' growth at n = 100
    pytest.param(lambda X: m_config(X, 0.05, 0.1, 0.1), lambda n: _config(n, 3, n), 500,
                 id="m_config",
                 marks=pytest.mark.xfail(strict=True, reason="n x n matrices, ROADMAP item 13")),
]


@pytest.mark.parametrize("call,build,n", ROWS)
def test_peak_grows_at_most_linearly(call, build, n):
    small, large = build(n), build(4 * n)
    call(small)
    peaks = _peak(call, small), _peak(call, large)
    assert peaks[1] <= GROWTH * peaks[0], f"{peaks[0]} -> {peaks[1]} bytes"
