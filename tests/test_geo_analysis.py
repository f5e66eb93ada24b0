"""Analytic pipeline for the discrete queue, checked against independent oracles."""
import warnings
from math import log, ulp

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from queuemax import (BracketError, ConvergenceError, DegenerateRootsError,
                      HeuristicRangeWarning, RangeError, SingularError,
                      StabilityError, UnsupportedError, analyze_geo, decay_rate_omega,
                      expected_max_length, hitting_probabilities,
                      increment_distribution, max_length_law, mean_queue_length,
                      stationary_distribution, validate_geo_params)
from queuemax.geo_analysis import _stationary_from_omega
from oracles import (decay_rate_omega_closed_form, mc_hitting_probability,
                     nu_minus1_by_ladder_heights, omega_by_exact_bisection,
                     stationary_by_exact_column_balance, truncated_stationary_vector,
                     truncated_transition_matrix)

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

# (c, r, load) points of the benchmark's analyze sweep (p = load*c*r) with slack
# c*r - p below 1e-3, where w - (qw+p)(rw+s)^c cancels to rounding near w = 1
HEAVY_TRAFFIC = [(1, 0.1, 0.9999), (1, 0.45, 0.9999), (2, 0.1, 0.9999), (2, 0.45, 0.9999),
                 (3, 0.1, 0.9999), (1, 0.1, 0.999), (1, 0.2, 0.9999), (1, 0.75, 0.9999),
                 (2, 0.1, 0.999), (3, 0.2, 0.9999)]


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

    @pytest.mark.parametrize("p,r", [(0.00099, 0.001), (0.0999, 0.1), (0.2, 0.5), (1 / 3, 1 / 2),
                                     (0.55, 0.8), (0.5, 0.5000001), (1e-300, 0.5)])
    def test_single_server_closed_form_to_two_ulp(self, p, r):
        # c = 1: the cut balance q r w = p s is linear in w
        params = validate_geo_params(p, r, 1)
        closed = params.p * params.s / (params.q * params.r)
        assert abs(decay_rate_omega(params) - closed) <= 2 * ulp(closed)

    @pytest.mark.parametrize("c,r,load", HEAVY_TRAFFIC)
    def test_heavy_traffic_matches_exact_rational_root(self, c, r, load):
        params = validate_geo_params(load * c * r, r, c)
        analysis = analyze_geo(params)
        exact = float(omega_by_exact_bisection(params))
        assert abs(analysis.omega - exact) <= 4 * ulp(exact)
        total = sum(analysis.pi_boundary) + analysis.pi_c / (1.0 - analysis.omega)
        assert total == pytest.approx(1.0, abs=1e-12)

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

    def test_masses_outside_unit_interval_rejected(self):
        # pi_0 / pi_3 is near p^-3 = 1e360, past the float range, so the law
        # normalises to masses (nan, 0, 0) and pi_3 = 0
        with pytest.raises(DegenerateRootsError):
            stationary_distribution(validate_geo_params(1e-120, 0.5, 3))

    def test_light_traffic_boundary_mass_may_round_to_one(self):
        # pi_0 = 1 - O(p) rounds to 1.0 below p ~ 1e-16, which is still a right law
        params = validate_geo_params(1e-17, 0.5, 1)
        boundary, pi_c = stationary_distribution(params)
        assert boundary == (1.0,)
        exact_boundary, exact_pi_c = stationary_by_exact_column_balance(params)
        ours, exact = np.array([*boundary, pi_c]), np.array([*exact_boundary, exact_pi_c])
        assert float(np.max(np.abs(ours / exact - 1.0))) < 1e-12
        assert analyze_geo(params).pi_boundary == (1.0,)

    def test_law_is_positive_for_any_omega(self):
        # the cut balances add products of probabilities, so even omega off its
        # root gives a normalised law inside (0, 1)
        omega = 1 - 1e-12
        boundary, pi_c = _stationary_from_omega(validate_geo_params(1.5e-5, 1e-5, 3), omega)
        assert all(0.0 < b < 1.0 for b in boundary) and 0.0 < pi_c < 1.0
        assert sum(boundary) + pi_c / (1.0 - omega) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p,r,c", [(1.95e-12, 1e-12, 2), (2.925e-12, 1e-12, 3),
                                       (0.95 * 16 * 0.05, 0.05, 16), (0.95 * 20 * 0.04, 0.04, 20)])
    def test_boundary_law_matches_exact_column_balance(self, p, r, c, monkeypatch):
        # back-substituting the column balances in floats loses 5.8e-5, 4.0e-4,
        # 3.1e-7 and 4.4e-5 relative at these points, where they cancel
        monkeypatch.setattr("queuemax.params.MAX_SERVERS", 20)
        params = validate_geo_params(p, r, c)
        boundary, pi_c = stationary_distribution(params)
        exact_boundary, exact_pi_c = stationary_by_exact_column_balance(params)
        ours, exact = np.array([*boundary, pi_c]), np.array([*exact_boundary, exact_pi_c])
        assert float(np.max(np.abs(ours / exact - 1.0))) < 1e-12

    def test_small_rates_give_a_valid_law(self):
        # slack c*r - p = 1.5e-5, and the fixed-point gap about as small near w = 1
        params = validate_geo_params(1.5e-5, 1e-5, 3)
        omega = decay_rate_omega(params)
        boundary, pi_c = stationary_distribution(params)
        assert sum(boundary) + pi_c / (1.0 - omega) == pytest.approx(1.0, abs=1e-12)
        ours = np.array([*boundary, *(pi_c * omega**j for j in range(401 - params.c))])
        assert float(np.max(np.abs(ours - truncated_stationary_vector(params, 401)))) < 1e-8
        # omega is near 1/2, so 401 states hold the whole mean to rounding
        assert mean_queue_length(params) == pytest.approx(float(np.arange(401) @ ours), rel=1e-12)

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
        alpha = dict(enumerate(increment_distribution(params)[3].tolist(), -3))
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

    def test_first_ascent_probability_is_omega_at_light_load(self):
        # the solve's nu_1 and the bisected omega are the same number two ways
        params = validate_geo_params(0.05, 0.95, 3)
        assert hitting_probabilities(params).nu_up[0] == pytest.approx(
            decay_rate_omega(params), rel=1e-13, abs=0.0)

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

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_descent_and_return_match_ladder_heights(self, c):
        heavy = [(load * c * r, r) for load in (0.999, 0.9999) for r in (0.1, 0.25, 0.3)]
        for p, r in sampled_region(c) + heavy:
            params = validate_geo_params(p, r, c)
            omega = decay_rate_omega(params)
            nu = hitting_probabilities(params)
            assert abs(nu.nu_minus1 - nu_minus1_by_ladder_heights(params, omega)) < 1e-9
            # first step: stay, step up and descend back, or step down m and climb back
            alpha = dict(enumerate(increment_distribution(params)[c].tolist(), -c))
            nu0 = alpha[0] + alpha[1] * nu.nu_minus1 + sum(
                alpha[-m] * omega**m for m in range(1, c + 1))
            assert abs(nu.nu0 - nu0) < 1e-9

    def test_monte_carlo_descent_oracle(self):
        nu = hitting_probabilities(REFERENCE)
        estimate, se = mc_hitting_probability(REFERENCE, start=1, walks=10**6, seed=2024)
        assert abs(estimate - nu.nu_minus1) < 3.0 * se

    def test_monte_carlo_ascent_oracle_two_servers(self):
        params = validate_geo_params(1 / 3, 1 / 4, 2)
        nu = hitting_probabilities(params)
        estimate, se = mc_hitting_probability(params, start=-1, walks=2 * 10**5, seed=11)
        assert abs(estimate - nu.nu_up[0]) < 3.0 * se

    # known failures of nu's root-and-solve pipeline on stable input; a closed
    # form for nu in terms of omega would certify both, and then these XPASS
    @pytest.mark.xfail(strict=True, raises=SingularError,
                       reason="the descent row underflows to an identically zero row")
    def test_vanishing_arrival_rate_is_certified(self):
        analysis = analyze_geo(validate_geo_params(1e-300, 0.5, 1))
        assert analysis.nu.nu_minus1 == 1.0

    @pytest.mark.xfail(strict=True, raises=DegenerateRootsError,
                       reason="the ascent denominator fails its remainder check at z = 1")
    @pytest.mark.parametrize("c", [2, 3])
    def test_tiny_service_rate_is_certified(self, c):
        analysis = analyze_geo(validate_geo_params(0.5 * c * 1e-9, 1e-9, c))
        mass = sum(analysis.pi_boundary) + analysis.pi_c / (1.0 - analysis.omega)
        assert abs(mass - 1.0) < 1e-12

    # at c = 1, 1 - nu0 = q r (1 - omega) exactly, but beta takes 1 - nu0 from
    # nu0 rounded near 1; the closed form would give it without the rounding
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="beta takes 1 - nu0 from a rounded nu0")
    @pytest.mark.parametrize("p,r", [(5e-13, 1e-12), (9.9999999e-9, 1e-8)])
    def test_nearly_certain_return_gives_a_certified_beta(self, p, r):
        params = validate_geo_params(p, r, 1)
        analysis = analyze_geo(params)
        exact = analysis.pi_c * params.q * params.r * (1.0 - analysis.omega)
        assert analysis.beta == pytest.approx(exact, rel=1e-6, abs=0.0)


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
        law = max_length_law(analysis, 10**4)
        values = [law.cdf(k) for k in range(3, 120)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)
        # decreasing in n
        assert max_length_law(analysis, 2 * 10**4).cdf(15) < law.cdf(15)

    def test_cdf_scaling_identity(self):
        # P{M_n <= k} = P{M_{n/omega} <= k+1} exactly under exp(-beta n omega^k)
        analysis = analyze_geo(REFERENCE)
        n = 5000.0
        left = max_length_law(analysis, n).cdf(14)
        right = max_length_law(analysis, n / analysis.omega).cdf(15)
        assert left == pytest.approx(right, rel=1e-12)

    def test_warns_below_boundary_level(self):
        analysis = analyze_geo(REFERENCE)
        with pytest.warns(HeuristicRangeWarning):
            value = max_length_law(analysis, 100).cdf(2)
        assert 0.0 <= value <= 1.0

    def test_mean_warns_below_one_clump(self):
        # c = 1, r = 0.05, load 0.9999 of the benchmark's sweep: beta * n = 5.3e-5
        analysis, n = analyze_geo(validate_geo_params(0.05 * 0.9999, 0.05, 1)), 10**5
        assert analysis.beta * n < 1.0
        with pytest.warns(HeuristicRangeWarning, match="beta\\*n"):
            assert expected_max_length(analysis, n) == pytest.approx(-88108.6, abs=0.1)

    def test_mean_is_silent_from_one_clump(self):
        analysis = analyze_geo(REFERENCE)
        n = 1.0 / analysis.beta + 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            max_length_law(analysis, 100).mean()  # beta * n = 8.4
            max_length_law(analysis, n).mean()

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


# a probability drawn log-uniformly from (1e-16, 1), or within 1e-16 of 1
UNIT = (st.floats(-16.0, 0.0, exclude_max=True).map(lambda e: 10.0**e)
        | st.floats(0.0, 1e-16).map(lambda d: 1.0 - d))


@settings(max_examples=400, deadline=None)
@given(c=st.sampled_from([1, 2, 3]), r=UNIT, load=UNIT)
@example(c=3, r=1e-5, load=0.5)  # nu's division by 1 - z fails its remainder check
@example(c=1, r=0.1, load=0.9999)  # heavy traffic: a certified analysis
@example(c=1, r=0.1, load=1e-15)  # no ascent roots to find, so no degree-0 polynomial
@example(c=2, r=1e-16, load=1 - 1e-16)  # omega rounds to 1: DegenerateRootsError
def test_analysis_returns_or_raises_a_numeric_error(c, r, load):
    """The library contract on every valid input: a certified analysis, or one
    of the numeric errors the command line maps to exit code 3."""
    try:
        params = validate_geo_params(load * c * r, r, c)
    except (RangeError, StabilityError):
        assume(False)
    try:
        analyze_geo(params)
    except (BracketError, ConvergenceError, SingularError, DegenerateRootsError):
        pass
