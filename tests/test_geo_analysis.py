"""Analytic pipeline for the discrete queue, checked against independent oracles."""
from math import log

import numpy as np
import pytest

from queuemax import (HeuristicRangeWarning, RangeError, UnsupportedError,
                      analyze_geo, decay_rate_omega, expected_max_length,
                      hitting_probabilities, increment_distribution,
                      max_length_cdf, max_length_law, mean_queue_length,
                      stationary_distribution, validate_geo_params)
from oracles import (decay_rate_omega_closed_form, mc_hitting_probability,
                     truncated_stationary_vector, truncated_transition_matrix)

REFERENCE = validate_geo_params(1 / 3, 1 / 6, 3)
FAST_SINGLE = validate_geo_params(1 / 3, 1 / 2, 1)

# frozen reference values, re-derivable from the module's own examples
OMEGA_REF = 0.5744080010
PI3_REF = 0.1777380492
NU_REF = {"nu0": 0.8437587438, "nu_minus1": 0.9309681530,
          "nu1": 0.5744080010, "nu2": 0.3299445517}
BETA_REF = 0.0841657058
SLOPE_REF = 1.8037019224
INTERCEPT_REF = -2.9229790566


def sampled_region(c, count=5):
    pairs = []
    for p in np.linspace(0.1, 0.9, count):
        for r in np.linspace(0.1, 0.9, count):
            if p < c * r:
                pairs.append((float(p), float(r)))
    return pairs


class TestDecayRate:
    def test_reference_value(self):
        assert decay_rate_omega(REFERENCE) == pytest.approx(OMEGA_REF, abs=1e-9)

    def test_single_server_half(self):
        # (q w + p)(r w + s) = w reduces to 2w^2 - 3w + 1 = 0, interior root 1/2
        assert decay_rate_omega(FAST_SINGLE) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_fixed_point_residual_on_grid(self, c):
        for p, r in sampled_region(c):
            params = validate_geo_params(p, r, c)
            omega = decay_rate_omega(params)
            residual = omega - (params.q * omega + p) * (params.r * omega + params.s) ** c
            assert abs(residual) < 1e-12
            assert 0.0 < omega < 1.0

    def test_closed_form_cross_check(self):
        closed = decay_rate_omega_closed_form(REFERENCE)
        assert closed is not None
        assert closed == pytest.approx(decay_rate_omega(REFERENCE), abs=1e-10)

    def test_closed_form_only_for_three_servers(self):
        with pytest.raises(UnsupportedError):
            decay_rate_omega_closed_form(FAST_SINGLE)

    def test_closed_form_declines_on_negative_radicand(self):
        # radicand 4(3q-r)^3 r^3 + chi^2 < 0 requires 3q < r; p=0.9 makes q small
        params = validate_geo_params(0.9, 0.95, 3)
        q, r, s = params.q, params.r, params.s
        radicand = 4 * (3 * q - r) ** 3 * r**3 + (-9 * q * r**2 + 2 * r**3 - 27 * q**2 * s) ** 2
        if radicand < 0:
            assert decay_rate_omega_closed_form(params) is None
        else:  # parameters turned out benign; the closed form must then agree
            assert decay_rate_omega_closed_form(params) == pytest.approx(
                decay_rate_omega(params), abs=1e-9)


class TestStationaryDistribution:
    def test_reference_pi3(self):
        _, pi_c = stationary_distribution(REFERENCE)
        assert pi_c == pytest.approx(PI3_REF, abs=1e-9)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_total_mass_on_grid(self, c):
        for p, r in sampled_region(c):
            params = validate_geo_params(p, r, c)
            omega = decay_rate_omega(params)
            boundary, pi_c = stationary_distribution(params)
            total = sum(boundary) + pi_c / (1.0 - omega)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_reference_matches_truncated_chain_oracle(self):
        oracle = truncated_stationary_vector(REFERENCE, size=401)
        analysis = analyze_geo(REFERENCE)
        ours = np.array([analysis.pi(j) for j in range(401)])
        assert float(np.max(np.abs(ours - oracle))) < 1e-9

    @pytest.mark.parametrize("params", [FAST_SINGLE, validate_geo_params(0.3, 0.25, 2)])
    def test_other_servers_match_truncated_chain_oracle(self, params):
        oracle = truncated_stationary_vector(params, size=401)
        analysis = analyze_geo(params)
        ours = np.array([analysis.pi(j) for j in range(401)])
        assert float(np.max(np.abs(ours - oracle))) < 1e-9

    def test_stationarity_residual_of_full_vector(self):
        matrix = truncated_transition_matrix(REFERENCE, 401)
        analysis = analyze_geo(REFERENCE)
        full = np.array([analysis.pi(j) for j in range(401)])
        assert float(np.max(np.abs(full @ matrix - full))) < 1e-10


class TestHittingProbabilities:
    def test_reference_values(self):
        nu = hitting_probabilities(REFERENCE)
        assert nu.nu0 == pytest.approx(NU_REF["nu0"], abs=1e-9)
        assert nu.nu_minus1 == pytest.approx(NU_REF["nu_minus1"], abs=1e-9)
        assert nu.nu_up[0] == pytest.approx(NU_REF["nu1"], abs=1e-9)
        assert nu.nu_up[1] == pytest.approx(NU_REF["nu2"], abs=1e-9)

    def test_recursion_residual_with_geometric_extension(self):
        # nu_j = a1 nu_{j-1} + a0 nu_j + a_{-1} nu_{j+1} + a_{-2} nu_{j+2} + a_{-3} nu_{j+3}
        # holds at j = 1 with nu_0 := 1 and nu_3 := omega^3, nu_4 := omega^4
        params = REFERENCE
        pmf = increment_distribution(params, 3)
        alpha = {int(k): float(v) for k, v in zip(pmf.support, pmf.probabilities)}
        omega = decay_rate_omega(params)
        nu = hitting_probabilities(params)
        chain = [1.0, nu.nu_up[0], nu.nu_up[1], omega**3, omega**4]
        residual = chain[1] - sum(alpha[1 - m] * chain[m] for m in range(5))
        assert abs(residual) < 1e-9

    def test_skip_free_identities_on_grid(self):
        for p, r in sampled_region(3):
            params = validate_geo_params(p, r, 3)
            omega = decay_rate_omega(params)
            nu = hitting_probabilities(params)
            assert nu.nu_up[0] == pytest.approx(omega, abs=1e-8)
            assert nu.nu_up[1] == pytest.approx(omega**2, abs=1e-8)

    def test_skip_free_identity_two_servers(self):
        for p, r in sampled_region(2):
            params = validate_geo_params(p, r, 2)
            assert hitting_probabilities(params).nu_up[0] == pytest.approx(
                decay_rate_omega(params), abs=1e-8)

    def test_single_server_descent_is_certain(self):
        # increments are -1/0/+1, so the walk cannot jump over the level from above
        nu = hitting_probabilities(FAST_SINGLE)
        assert nu.nu_minus1 == pytest.approx(1.0, abs=1e-10)
        assert nu.nu_up == ()

    def test_monte_carlo_descent_oracle(self):
        nu = hitting_probabilities(REFERENCE)
        estimate, se = mc_hitting_probability(REFERENCE, start=1, walks=10**6, seed=2024)
        assert abs(estimate - nu.nu_minus1) < 3.0 * se

    def test_monte_carlo_ascent_oracle_two_servers(self):
        params = validate_geo_params(1 / 3, 1 / 4, 2)
        nu = hitting_probabilities(params)
        estimate, se = mc_hitting_probability(params, start=-1, walks=2 * 10**5, seed=11)
        assert abs(estimate - nu.nu_up[0]) < 3.0 * se


class TestClumpRateAndMaxLaw:
    def test_reference_beta(self):
        analysis = analyze_geo(REFERENCE)
        assert analysis.beta == pytest.approx(BETA_REF, abs=1e-9)

    def test_beta_algebraic_identity(self):
        for params in (REFERENCE, FAST_SINGLE, validate_geo_params(0.2, 0.3, 2)):
            analysis = analyze_geo(params)
            lhs = analysis.beta * analysis.omega ** (params.c - 1) / (1.0 - analysis.nu.nu0)
            assert lhs == pytest.approx(analysis.pi_c, rel=1e-12)

    def test_reference_slope_and_intercept(self):
        law = max_length_law(analyze_geo(REFERENCE), n=1000)
        assert law.slope == pytest.approx(SLOPE_REF, abs=1e-9)
        assert law.intercept == pytest.approx(INTERCEPT_REF, abs=1e-9)

    def test_cdf_limits_and_monotonicity(self):
        analysis = analyze_geo(REFERENCE)
        values = [max_length_cdf(analysis, 10**4, k) for k in range(3, 120)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)
        # decreasing in n
        assert max_length_cdf(analysis, 2 * 10**4, 15) < max_length_cdf(analysis, 10**4, 15)

    def test_cdf_scaling_identity(self):
        # P{M_n <= k} = P{M_{n/omega} <= k+1} exactly under exp(-beta n omega^k)
        analysis = analyze_geo(REFERENCE)
        n = 5000.0
        left = max_length_cdf(analysis, n, 14)
        right = max_length_cdf(analysis, n / analysis.omega, 15)
        assert left == pytest.approx(right, rel=1e-12)

    def test_warns_below_boundary_level(self):
        analysis = analyze_geo(REFERENCE)
        with pytest.warns(HeuristicRangeWarning):
            value = max_length_cdf(analysis, 100, 2)
        assert 0.0 <= value <= 1.0

    def test_expected_max_affine_in_log_n(self):
        analysis = analyze_geo(REFERENCE)
        base = expected_max_length(analysis, 4096)
        doubled = expected_max_length(analysis, 8192)
        law = max_length_law(analysis, 4096)
        assert doubled - base == pytest.approx(law.slope * log(2.0), rel=1e-12)

    def test_fast_single_server_beats_three_slow_on_expected_max(self):
        three_slow = analyze_geo(REFERENCE)
        one_fast = analyze_geo(FAST_SINGLE)
        for n in (10**3, 10**4, 10**5, 10**6):
            assert expected_max_length(three_slow, n) > expected_max_length(one_fast, n)

    def test_horizon_validation(self):
        analysis = analyze_geo(REFERENCE)
        with pytest.raises(RangeError):
            max_length_law(analysis, 0)
        with pytest.raises(RangeError):
            expected_max_length(analysis, 1)


class TestMeanQueueLength:
    def test_single_server_closed_form(self):
        # pq/(r - p) at p=1/3, r=1/2
        params = FAST_SINGLE
        assert mean_queue_length(params) == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert mean_queue_length(params) == pytest.approx(
            params.p * params.q / (params.r - params.p), abs=1e-10)

    def test_reference_three_server_value(self):
        assert mean_queue_length(REFERENCE) == pytest.approx(2.56365, abs=1e-4)

    def test_three_server_tail_form_matches_boundary_sum(self):
        # pi_1 + 2 pi_2 + (3 - 2 omega)/(1 - omega)^2 pi_3
        analysis = analyze_geo(REFERENCE)
        direct = (analysis.pi_boundary[1] + 2.0 * analysis.pi_boundary[2]
                  + (3.0 - 2.0 * analysis.omega) / (1.0 - analysis.omega) ** 2 * analysis.pi_c)
        assert mean_queue_length(REFERENCE) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("params", [
        REFERENCE, FAST_SINGLE,
        validate_geo_params(0.3, 0.25, 2),
        validate_geo_params(0.55, 0.8, 1),
        validate_geo_params(0.7, 0.4, 3),
    ])
    def test_matches_truncation_oracle(self, params):
        oracle = truncated_stationary_vector(params, size=401)
        expected = float(np.dot(np.arange(401), oracle))
        assert mean_queue_length(params) == pytest.approx(expected, abs=1e-6)


class TestContinuityOverParameters:
    """No root-selection jumps: the pipeline outputs vary smoothly on transects."""

    @pytest.mark.parametrize("c,r", [(3, 0.2), (2, 0.35), (1, 0.7)])
    def test_smooth_in_arrival_probability(self, c, r):
        p_values = np.linspace(0.05, c * r * 0.9, 30)
        betas, slopes, intercepts = [], [], []
        for p in p_values:
            analysis = analyze_geo(validate_geo_params(float(p), r, c))
            law = max_length_law(analysis, 1000)
            betas.append(analysis.beta)
            slopes.append(law.slope)
            intercepts.append(law.intercept)
        for series in (betas, slopes, intercepts):
            arr = np.asarray(series)
            assert np.all(np.isfinite(arr))
            jumps = np.abs(np.diff(arr))
            span = float(arr.max() - arr.min())
            if span > 0:
                assert float(jumps.max()) < 0.35 * span  # a selection jump would be O(span)
