import numpy as np
import pytest

from heilbronn import triangles
from heilbronn.configurations import generate_vertical, min_config_distance
from heilbronn.search import (
    AnnealSchedule,
    _DistanceState,
    _min_with_vertex,
    anneal_max_distance,
    anneal_max_triangle,
    exponent_estimate,
    measure_family,
)
from heilbronn.triangles import min_triangle_brute

from conftest import cross_block


def short_schedule(seed, moves=300, epochs=20):
    return AnnealSchedule(moves_per_epoch=moves, epochs=epochs, seed=seed)


class TestAnnealDistance:
    def test_two_pairs_near_optimum(self):
        # coarse grid search over 2-pair placements bounds the optimum by the
        # cube diameter; annealing should reach at least 0.5
        X = anneal_max_distance(2, 2, short_schedule(1, moves=600, epochs=25))
        assert min_config_distance(X) >= 0.5

    def test_seeded_never_degrades(self):
        V = generate_vertical(1 / 8, 2)
        X = anneal_max_distance(len(V), 2, short_schedule(3, moves=150, epochs=5),
                                init=V)
        assert min_config_distance(X) >= min_config_distance(V) - 1e-12

    def test_deterministic(self):
        s = short_schedule(9, moves=120, epochs=4)
        Xa = anneal_max_distance(6, 2, s)
        Xb = anneal_max_distance(6, 2, s)
        assert np.array_equal(Xa.points(), Xb.points())
        assert np.array_equal(Xa.directions(), Xb.directions())

    def test_beats_vertical_baseline(self):
        n = 16
        V = generate_vertical(1 / (2 * n), 2)
        assert len(V) == n
        X = anneal_max_distance(n, 2, short_schedule(4, moves=800, epochs=40),
                                init=V)
        assert min_config_distance(X) >= 0.8 * min_config_distance(V)

    def test_feasibility_and_revalidation(self):
        X = anneal_max_distance(10, 3, short_schedule(5, moves=150, epochs=5))
        assert X.validate() == []
        d1 = min_config_distance(X)
        d2 = min_config_distance(X)
        assert d1 == d2

    def test_envelope_sandwich(self):
        # annealed configurations respect the packing bound
        for seed in range(3):
            X = anneal_max_distance(12, 2, short_schedule(seed, moves=300, epochs=10))
            d = min_config_distance(X)
            assert len(X) <= 10 * d**-2


def _unit_rows(X):
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


class TestDistanceState:
    """The annealer's point-line matrix takes each entry from its own point and
    line, so after any moves it equals a fresh build of the same state."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_moves_and_undos_match_fresh_build(self, dim):
        rng = np.random.default_rng(dim)
        n = 150
        state = _DistanceState(rng.uniform(0, 1, (n, dim)), _unit_rows(rng.normal(size=(n, dim))))
        for _ in range(3 * n):
            k = int(rng.integers(n))
            point, direction = rng.uniform(0, 1, dim), _unit_rows(rng.normal(size=dim))
            kind = int(rng.integers(3))
            saved = state.move(k, point=point if kind != 1 else None,
                               direction=direction if kind != 0 else None)
            if rng.random() < 0.5:
                state.undo(k, saved)
        fresh = _DistanceState(state.points, state.dirs)
        assert np.array_equal(state.D, fresh.D)


class TestAnnealTriangle:
    def test_three_points_reach_half(self):
        P = anneal_max_triangle(3, 2, short_schedule(2, moves=500, epochs=30))
        assert min_triangle_brute(P).area >= 0.4

    def test_scaling_trend(self):
        # Delta * n^2 should not collapse as n grows
        vals = {}
        for n in (8, 16, 32):
            P = anneal_max_triangle(n, 2, short_schedule(11, moves=400, epochs=25))
            vals[n] = min_triangle_brute(P).area * n**2
        assert vals[32] >= 0.05 * vals[8]

    def test_deterministic(self):
        s = short_schedule(13, moves=100, epochs=4)
        Pa = anneal_max_triangle(6, 2, s)
        Pb = anneal_max_triangle(6, 2, s)
        assert np.array_equal(Pa, Pb)


    @pytest.mark.parametrize("dim", [2, 3])
    def test_min_with_vertex_equals_triu_oracle(self, dim):
        # reference: cross products of the other points seen from k, the
        # strict upper triangle gathered by np.triu_indices
        P = np.random.default_rng(dim).uniform(0, 1, (15, dim))
        for k in (0, 7, 14):
            C = cross_block(P[np.delete(np.arange(15), k)] - P[k])
            assert _min_with_vertex(P, k) == float(C[np.triu_indices(14, 1)].min()) / 2.0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("slice_", [1, 40])
    def test_min_with_vertex_in_row_slices(self, dim, slice_, monkeypatch):
        # one row a slice, and three rows a slice with a short last slice
        monkeypatch.setattr(triangles, "_SLICE", slice_)
        P = np.random.default_rng(dim).uniform(0, 1, (15, dim))
        for k in (0, 7, 14):
            C = cross_block(P[np.delete(np.arange(15), k)] - P[k])
            assert _min_with_vertex(P, k) == float(C[np.triu_indices(14, 1)].min()) / 2.0


class TestExponentEstimate:
    def test_exact_power_law(self):
        fit = exponent_estimate({2.0**-k: [2.0**k * 3] for k in range(2, 7)})
        assert fit.slope == pytest.approx(-1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_vertical_count_slope(self):
        vals = {d: [measure_family("vertical_count", d, dim=3)]
                for d in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)}
        fit = exponent_estimate(vals)
        assert fit.slope == pytest.approx(-2.0, abs=0.05)

    def test_needs_three_rungs(self):
        with pytest.raises(ValueError):
            exponent_estimate({1.0: [1.0], 0.5: [2.0]})

    def test_anneal_distance_exponent_between_envelopes(self):
        # fitted count-vs-distance exponent between the vertical construction
        # (slope 1 in 2D) and the packing bound (slope 2)
        by_n = {}
        for n in (8, 16, 32):
            ds = [measure_family("anneal_distance", n, seed=s, dim=2)
                  for s in range(2)]
            by_n[n] = ds
        fit = exponent_estimate(by_n)
        # d(X) ~ n^(-1/e) with e in [1, 2] -> slope in [-1, -0.5]
        assert -1.3 <= fit.slope <= -0.35
