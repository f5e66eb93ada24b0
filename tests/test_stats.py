"""Empirical CDFs, the two-moment Gumbel fit, KS distance, and summaries."""
from math import pi, sqrt

import numpy as np
import pytest

from queuemax import (ECDF, EULER_GAMMA, DegenerateSampleError, GumbelParams,
                      RangeError, gumbel_fit_two_moment, ks_distance, summarize)


def draw_gumbel(location, scale, size, seed):
    uniforms = np.random.default_rng(seed).random(size)
    return location - scale * np.log(-np.log(uniforms))


class TestECDF:
    def test_from_samples_dedup(self):
        ecdf = ECDF.from_samples([3, 1, 3, 2, 2, 2])
        assert ecdf.values.tolist() == [1, 2, 3]
        assert ecdf.probabilities.tolist() == pytest.approx([1 / 6, 4 / 6, 1.0])

    def test_evaluate_step_function(self):
        ecdf = ECDF.from_samples([1.0, 2.0])
        assert ecdf.evaluate(0.5) == 0.0
        assert ecdf.evaluate(1.0) == 0.5
        assert ecdf.evaluate(1.7) == 0.5
        assert ecdf.evaluate(5.0) == 1.0
        assert ecdf.evaluate(np.array([0.0, 2.0])).tolist() == [0.0, 1.0]

    def test_rejects_empty(self):
        with pytest.raises(DegenerateSampleError):
            ECDF.from_samples([])

    def test_rejects_non_monotone(self):
        with pytest.raises(RangeError):
            ECDF(np.array([1.0, 1.0]), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("values,probabilities,message", [
        ([1.0, 2.0], [1.0], "congruent"),
        ([[1.0, 2.0]], [[0.5, 1.0]], "congruent"),
        ([1.0, 2.0], [0.25, 0.5], "increase strictly to 1"),
    ])
    def test_rejects_malformed_arrays(self, values, probabilities, message):
        with pytest.raises(RangeError, match=message):
            ECDF(np.array(values), np.array(probabilities))


class TestGumbelFit:
    def test_standard_moments_recovered_exactly(self):
        # a two-point sample built to have mean gamma and variance pi^2/6
        spread = pi / sqrt(6.0)
        samples = [EULER_GAMMA - spread / sqrt(2.0) * 1.0,
                   EULER_GAMMA + spread / sqrt(2.0) * 1.0]
        fit = gumbel_fit_two_moment(samples)
        assert fit.location == pytest.approx(0.0, abs=1e-12)
        assert fit.scale == pytest.approx(1.0, abs=1e-12)

    def test_moment_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(5.0, 2.0, size=1000)
        fit = gumbel_fit_two_moment(samples)
        assert fit.mean() == pytest.approx(float(np.mean(samples)), rel=1e-12)
        assert fit.variance() == pytest.approx(float(np.var(samples, ddof=1)), rel=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        samples = rng.random(500)
        base = gumbel_fit_two_moment(samples)
        shifted = gumbel_fit_two_moment(3.0 * samples + 7.0)
        assert shifted.location == pytest.approx(3.0 * base.location + 7.0, rel=1e-12)
        assert shifted.scale == pytest.approx(3.0 * base.scale, rel=1e-12)

    def test_synthetic_recovery_within_three_se(self):
        # delta-method SEs of the moment estimators, with higher moments taken
        # from the sample itself
        size = 10**5
        samples = draw_gumbel(0.0, 1.0, size, seed=606)
        fit = gumbel_fit_two_moment(samples)
        sd = float(np.std(samples, ddof=1))
        centered = samples - samples.mean()
        mu3 = float(np.mean(centered**3))
        mu4 = float(np.mean(centered**4))
        var_s = (mu4 - sd**4) / (4.0 * sd**2 * size)  # Var of the sample stdev
        se_scale = sqrt(6.0) / pi * sqrt(var_s)
        cov_mean_s = mu3 / (2.0 * sd * size)
        var_location = (sd**2 / size + EULER_GAMMA**2 * (6.0 / pi**2) * var_s
                        - 2.0 * EULER_GAMMA * sqrt(6.0) / pi * cov_mean_s)
        assert abs(fit.scale - 1.0) < 3.0 * se_scale
        assert abs(fit.location - 0.0) < 3.0 * sqrt(var_location)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            gumbel_fit_two_moment([1.0])
        with pytest.raises(DegenerateSampleError):
            gumbel_fit_two_moment([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(RangeError, match="scale must be positive"):
            GumbelParams(0.0, scale)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.5, 1.5])
    def test_quantile_level_outside_unit_interval_rejected(self, u):
        with pytest.raises(RangeError, match="quantile level"):
            GumbelParams(2.0, 1.5).quantile(u)

    def test_quantile_inverts_cdf(self):
        fit = GumbelParams(2.0, 1.5)
        for u in (0.1, 0.5, 0.9):
            assert fit.cdf(fit.quantile(u)) == pytest.approx(u, rel=1e-12)


class TestKSDistance:
    def test_self_distance_is_zero_on_lattice(self):
        ecdf = ECDF.from_samples([1, 2, 2, 5])
        assert ks_distance(ecdf, ecdf.evaluate, lattice=True) == 0.0

    def test_single_point_formula(self):
        x0 = 1.3  # non-integer: continuous-reference convention applies
        fit = GumbelParams(0.0, 1.0)
        ecdf = ECDF.from_samples([x0])
        expected = max(fit.cdf(x0), 1.0 - fit.cdf(x0))
        assert ks_distance(ecdf, fit.cdf) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_one(self):
        ecdf = ECDF.from_samples([100.0, 200.0])
        assert 0.0 <= ks_distance(ecdf, GumbelParams(0.0, 1.0).cdf) <= 1.0

    def test_continuous_mode_uses_both_gaps(self):
        # uniform CDF against two samples: lower gap at the first jump dominates
        ecdf = ECDF.from_samples([0.9, 0.95])
        distance = ks_distance(ecdf, lambda x: np.clip(x, 0.0, 1.0))
        assert distance == pytest.approx(0.9, rel=1e-12)

    def test_lattice_gap_between_support_points(self):
        # reference mass sits at 4 where the sample has none; the pointwise
        # lattice comparison must see the gap at k = 4
        ecdf = ECDF.from_samples([3, 7])

        def reference(k):
            return np.where(k < 3, 0.0, np.where(k < 4, 0.5, 1.0))

        assert ks_distance(ecdf, reference, lattice=True) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("lattice,points", [(False, [3, 7, 12]), (True, list(range(2, 13)))])
    def test_reference_is_called_once_with_an_array(self, lattice, points):
        ecdf = ECDF.from_samples([3, 7, 7, 12])
        calls = []

        def reference(x):
            calls.append(x)
            return GumbelParams(8.0, 2.0).cdf(x)

        ks_distance(ecdf, reference, lattice=lattice)
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
        assert calls[0].tolist() == points

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        samples = rng.random(200) + 0.1
        fit = gumbel_fit_two_moment(samples)
        base = ks_distance(ECDF.from_samples(samples), fit.cdf)
        # apply x -> exp(x) to both sample and reference
        transformed = ks_distance(ECDF.from_samples(np.exp(samples)),
                                  lambda y: fit.cdf(np.log(y)))
        assert transformed == pytest.approx(base, rel=1e-9)


class TestSummarize:
    def test_single_sample(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.se == 0.0

    def test_two_point_sample(self):
        summary = summarize([0.0, 1.0])
        assert summary.mean == 0.5
        assert summary.se == pytest.approx(0.5, rel=1e-12)

    def test_large_normal_sample_within_three_se(self):
        samples = np.random.default_rng(77).normal(0.0, 1.0, size=50000)
        summary = summarize(samples)
        assert abs(summary.mean) < 3.0 * summary.se

    def test_rejects_empty(self):
        with pytest.raises(DegenerateSampleError):
            summarize([])
