"""Tail statistics and OT distance against closed forms and enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfactor.metrics import (
    DegenerateSeriesError,
    _coupling,
    PointCloud,
    build_tail_cloud,
    default_tail_k,
    hill_index,
    ot_distance,
    standardize,
    stylized_facts,
    tail_log_ratios,
    theoretical_hill,
)
from oracles import linprog_ot, ot_distance_loop, vertex_ot


def pareto_grid(zeta: float, n: int) -> np.ndarray:
    """Deterministic inverse-CDF sample of Pareto(1, zeta): P(X > x) = x^-zeta."""
    u = (np.arange(n) + 0.5) / n
    return (1.0 - u) ** (-1.0 / zeta)


class TestStandardize:
    def test_already_standard(self):
        assert standardize([1.0, -1.0]) == pytest.approx([1.0, -1.0])

    def test_affine_map(self):
        assert standardize([2.0, 4.0]) == pytest.approx([-1.0, 1.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            standardize([3.0, 3.0, 3.0])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200)
           .filter(lambda xs: np.std(xs) > 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_moments_definitional(self, xs):
        z = standardize(xs)
        assert abs(z.mean()) < 1e-9
        assert z.std() == pytest.approx(1.0, abs=1e-9)


class TestTailLogRatios:
    def test_direct_order_statistics(self):
        sample = [4.0, 2.0, 1.0, 0.5, 0.25]
        assert tail_log_ratios(sample, 2) == pytest.approx([np.log(4), np.log(2)])

    def test_constant_tail_all_ones(self):
        sample = [2.0 * np.e] * 5 + [2.0] + [0.1] * 10
        ratios = tail_log_ratios(sample, 5)
        assert ratios == pytest.approx([1.0] * 5)

    def test_zero_pivot_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            tail_log_ratios([1.0, 0.0, 0.0], 1)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=4, max_size=60),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_oracle(self, xs, k):
        srt = sorted(xs, reverse=True)
        expected = [np.log(srt[i] / srt[k]) for i in range(k)]
        got = tail_log_ratios(xs, k)
        assert got == pytest.approx(expected, abs=1e-12)
        full = np.sort(np.asarray(xs))[::-1]  # every value, sorted
        assert np.array_equal(got, np.log(full[:k] / full[k]))
        assert np.all(got >= 0)
        assert np.all(np.diff(got) <= 1e-15)


class TestHillIndex:
    def test_constructed_unit_ratios(self):
        sample = [2.0 * np.e] * 4 + [2.0] + [0.5] * 5
        cloud = PointCloud(tail_log_ratios(sample, 4))
        assert hill_index(cloud) == pytest.approx(1.0)
        assert cloud.size == 4

    @pytest.mark.parametrize("zeta", [2.0, 3.0, 4.0])
    def test_recovers_pareto_exponent(self, zeta):
        x = pareto_grid(zeta, 100_000)
        assert abs(hill_index(PointCloud(tail_log_ratios(x, 5000))) - zeta) < 0.15

    def test_default_k_is_five_percent(self):
        assert default_tail_k(100_000) == 5000
        assert default_tail_k(4) == 1  # floor would give 0; clamp keeps K usable
        x = pareto_grid(3.0, 2000)
        assert build_tail_cloud(x).size == 100

    def test_all_ties_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            hill_index(PointCloud(tail_log_ratios([5.0] * 10, 3)))

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        x = pareto_grid(3.0, 500)
        assert hill_index(PointCloud(tail_log_ratios(c * x, 25))) == pytest.approx(
            hill_index(PointCloud(tail_log_ratios(x, 25))), rel=1e-9)


class TestTailCloud:
    def test_cloud_size_and_sign(self):
        cloud = PointCloud(tail_log_ratios(pareto_grid(3.0, 400), 20))
        assert cloud.size == 20
        assert np.all(cloud.points >= 0)

    def test_scale_invariance(self):
        x = pareto_grid(2.5, 300)
        a = PointCloud(tail_log_ratios(x, 15))
        b = PointCloud(tail_log_ratios(7.0 * x, 15))
        assert b.points == pytest.approx(a.points, abs=1e-12)

    def test_shift_sensitivity(self):
        x = pareto_grid(2.5, 300)
        a = PointCloud(tail_log_ratios(x, 15))
        b = PointCloud(tail_log_ratios(x + 1.0, 15))
        assert not np.allclose(a.points, b.points)


class TestOtDistance:
    def test_identity_zero(self):
        cloud = PointCloud(np.array([0.1, 0.7, 0.7, 2.0]))
        assert ot_distance(cloud, cloud) == 0.0

    def test_single_pair(self):
        assert ot_distance(PointCloud([0.0]), PointCloud([1.0])) == 1.0

    def test_two_three_hand_value(self):
        a = PointCloud([0.0, 1.0])
        b = PointCloud([0.0, 0.5, 1.0])
        got = ot_distance(a, b)
        assert got == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert got == pytest.approx(vertex_ot([0.0, 1.0], [0.0, 0.5, 1.0]), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = PointCloud(rng.random(7))
        b = PointCloud(rng.random(4))
        assert ot_distance(a, b) == pytest.approx(ot_distance(b, a), abs=1e-15)

    def test_translation_exact(self):
        # dyadic coordinates so the shift is exact in binary floating point
        base = np.array([0.25, 0.5, 1.75, 3.0])
        a = PointCloud(base)
        b = PointCloud(base + 0.5)
        assert ot_distance(a, b) == 0.25

    def test_two_d_points_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0], [1.0]])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_vertex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_a, n_b = rng.integers(1, 7, size=2)
        xa, xb = rng.random(n_a), rng.random(n_b)
        got = ot_distance(PointCloud(xa), PointCloud(xb))
        assert got == pytest.approx(vertex_ot(xa, xb), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_linear_program(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_a, n_b = rng.integers(2, 9, size=2)
        xa, xb = rng.random(n_a) * 3, rng.random(n_b) * 3
        got = ot_distance(PointCloud(xa), PointCloud(xb))
        assert got == pytest.approx(linprog_ot(xa, xb), abs=1e-8)

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.one_of(
            st.tuples(st.integers(1, 60), st.integers(1, 60)),
            st.integers(1, 60).map(lambda n: (n, n)),
            st.integers(1, 60).map(lambda n: (1, n)),
            st.tuples(st.integers(1, 12), st.integers(2, 6)).map(lambda t: (t[0], t[0] * t[1])),
            st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 6))
            .map(lambda t: (t[0] * t[2], t[1] * t[2])),
            st.just((14, 1500)),
        ),
        swap=st.booleans(),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_exactly(self, sizes, swap, ties, seed):
        n_a, n_b = sizes[::-1] if swap else sizes
        rng = np.random.default_rng(seed)
        if ties:  # few distinct values: duplicate coordinates on both sides
            xa, xb = rng.integers(0, 4, n_a) * 0.5, rng.integers(0, 4, n_b) * 0.5
        else:
            xa, xb = rng.standard_t(3, n_a), rng.standard_t(3, n_b)
        got = ot_distance(PointCloud(xa), PointCloud(xb))
        assert got == ot_distance_loop(xa, xb)

    def test_points_keep_their_order(self):
        rng = np.random.default_rng(9)
        xa, xb = rng.random(7), rng.random(4)
        a, b = PointCloud(xa), PointCloud(xb)
        first = ot_distance(a, b)
        assert np.array_equal(a.points, xa) and np.array_equal(b.points, xb)
        assert np.array_equal(a.sorted_coords, np.sort(xa))
        assert ot_distance(a, b) == first == ot_distance_loop(xa, xb)  # sorted views reused

    @pytest.mark.parametrize("sizes", [(14, 1500), (1500, 14), (3, 5), (6, 4)])
    def test_cached_coupling_serves_new_points_exactly(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        for _ in range(4):  # the same pair of sizes, back to back
            xa, xb = rng.standard_t(3, sizes[0]), rng.standard_t(3, sizes[1])
            assert ot_distance(PointCloud(xa), PointCloud(xb)) == ot_distance_loop(xa, xb)

    def test_cached_coupling_is_read_only(self):
        ot_distance(PointCloud(np.arange(3.0)), PointCloud(np.arange(5.0)))
        for array in _coupling(3, 5):
            with pytest.raises(ValueError):
                array[0] = 1
        assert ot_distance(PointCloud([0.0, 1.0]), PointCloud([0.0, 0.5, 1.0])) == 1.0 / 12.0


class TestTheoreticalHill:
    def test_reference_component_values(self):
        assert theoretical_hill(4.03, 3.82, 3.14) == pytest.approx(2.93)

    def test_no_effect_components(self):
        assert theoretical_hill(3.5, 3.5, 3.5) == 3.5

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_direct_arithmetic(self, z0, z1, z2):
        assert theoretical_hill(z0, z1, z2) == z1 + z2 - z0


class TestStylizedFacts:
    def test_gaussian_null(self):
        rng = np.random.default_rng(77)
        r = rng.standard_normal(100_000)
        report = stylized_facts(r, volumes=None)
        assert abs(report.kurtosis) < 0.1
        assert report.vol_volume_corr is None
        for lag in (1, 10, 20, 30):
            assert abs(report.abs_autocorr[lag]) < 0.02

    def test_perfect_volume_correlation(self):
        rng = np.random.default_rng(78)
        r = rng.standard_normal(500)
        report = stylized_facts(r, volumes=np.abs(r))
        assert report.vol_volume_corr == pytest.approx(1.0)

    def test_heavy_tails_positive_kurtosis(self):
        rng = np.random.default_rng(79)
        r = rng.standard_t(3, size=50_000)
        assert stylized_facts(r).kurtosis > 0.5

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            stylized_facts(np.ones(20))

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            stylized_facts(np.ones(100))
