"""Closed forms for the continuous-time queue."""
import warnings
from dataclasses import fields
from math import exp, inf, log, nan

import numpy as np
import pytest

from queuemax import (EULER_GAMMA, HeuristicRangeWarning, MM1Asymptotics, MMParams, RangeError,
                      StabilityError, UnsupportedError, expected_max_wait_mm1,
                      max_wait_cdf_mm1, mean_wait, mm1_asymptotics, validate_mm_params)
from oracles import mm_queue_wait_birth_death, mm_queue_wait_rational

SINGLE = validate_mm_params(1 / 3, 1 / 2, 1)
TWO = validate_mm_params(1 / 3, 1 / 4, 2)
THREE = validate_mm_params(1 / 3, 1 / 6, 3)


class TestValidation:
    def test_stability_required(self):
        with pytest.raises(StabilityError):
            validate_mm_params(1.0, 0.5, 2)

    def test_positive_rates_required(self):
        with pytest.raises(RangeError):
            validate_mm_params(-1.0, 0.5, 1)
        with pytest.raises(RangeError):
            validate_mm_params(0.5, 0.0, 1)

    @pytest.mark.parametrize("c", [1.5, 0, float("nan"), float("inf"), "2"])
    def test_integer_servers_required(self, c):
        with pytest.raises(UnsupportedError):
            validate_mm_params(0.1, 0.5, c)
        with pytest.raises(UnsupportedError):
            MMParams(0.1, 0.5, c)

    def test_servers_past_the_float_range_rejected(self):
        # the stability check lam >= c*mu would convert c to a float and overflow
        for make in (validate_mm_params, MMParams):
            with pytest.raises(UnsupportedError, match="1329 bits overflows a float"):
                make(1.0, 1.0, 10**400)

    def test_load_ratios(self):
        assert SINGLE.rho_single == pytest.approx(2 / 3, abs=1e-15)
        assert THREE.utilization == pytest.approx(2 / 3, abs=1e-12)


class TestExpectedMaxWait:
    def test_slope_and_intercepts(self):
        # 6 ln(n) - 16.31172 (system) and 6 ln(n) - 18.74451 (queue)
        n1, n2 = 1000.0, 2000.0
        for kind, intercept in (("system", -16.31172), ("queue", -18.74451)):
            v1 = expected_max_wait_mm1(SINGLE, kind, n1)
            v2 = expected_max_wait_mm1(SINGLE, kind, n2)
            slope = (v2 - v1) / (log(n2) - log(n1))
            assert slope == pytest.approx(6.0, abs=1e-10)
            assert v1 - slope * log(n1) == pytest.approx(intercept, abs=1e-4)

    def test_reference_horizon_values(self):
        assert expected_max_wait_mm1(SINGLE, "system", 20000) == pytest.approx(43.109, abs=1e-3)
        assert expected_max_wait_mm1(SINGLE, "queue", 20000) == pytest.approx(40.676, abs=1e-3)

    def test_system_queue_gap_identity(self):
        # difference of the two formulas is ln(1/rho)/(mu - lambda) exactly; one draw
        # has A*n = 0.41 (system) and 0.39 (queue) at n = 500, below one exceedance
        rng = np.random.default_rng(5)
        with pytest.warns(HeuristicRangeWarning, match="A\\*n") as caught:
            for _ in range(50):
                mu = float(rng.uniform(0.2, 3.0))
                lam = float(rng.uniform(0.05, 0.95)) * mu
                params = validate_mm_params(lam, mu, 1)
                gap = (expected_max_wait_mm1(params, "system", 500.0)
                       - expected_max_wait_mm1(params, "queue", 500.0))
                assert gap == pytest.approx(log(1.0 / params.rho_single) / (mu - lam), rel=1e-10)
        assert [str(w.message).split()[5] for w in caught] == ["A*n=0.411239", "A*n=0.390372"]

    @pytest.mark.parametrize("n", [0.0, -1.0, nan, inf])
    def test_non_positive_horizon_rejected(self, n):
        with pytest.raises(RangeError, match="horizon must be positive"):
            expected_max_wait_mm1(SINGLE, "system", n)
        with pytest.raises(RangeError, match="horizon must be positive"):
            max_wait_cdf_mm1(SINGLE, "system", n, 1.0)

    def test_multi_server_unsupported(self):
        with pytest.raises(UnsupportedError):
            expected_max_wait_mm1(TWO, "system", 1000.0)
        with pytest.raises(UnsupportedError):
            mm1_asymptotics(THREE, "queue")

    def test_warns_below_one_expected_exceedance(self):
        # c = 1, load 0.999 of the benchmark's sweep: maxima -4839 and -4841
        params, n = validate_mm_params(0.999 * 0.5, 0.5, 1), 1e5
        for kind in ("system", "queue"):
            assert mm1_asymptotics(params, kind).rate_constant * n < 1.0
            with pytest.warns(HeuristicRangeWarning, match="A\\*n"):
                assert expected_max_wait_mm1(params, kind, n) < 0.0

    def test_silent_from_one_expected_exceedance(self):
        n = 1.5 / mm1_asymptotics(SINGLE, "queue").rate_constant  # A n = 1.5 and 2.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("system", "queue"):
                expected_max_wait_mm1(SINGLE, kind, n)


class TestAsymptotics:
    def test_record_holds_only_the_two_constants(self):
        assert [field.name for field in fields(MM1Asymptotics)] == ["scale", "rate_constant"]

    def test_underflowing_rate_constant_is_named(self):
        # lambda rho (1 - rho)^2 = 1e-300 * 5e-301 * (1 - 5e-301)^2 underflows to 0
        params = validate_mm_params(1e-300, 2.0, 1)
        assert mm1_asymptotics(params, "system").rate_constant == 1e-300
        with pytest.raises(RangeError, match="rate constant 0.0 is not positive: it underflowed"):
            mm1_asymptotics(params, "queue")

    def test_overflowing_cdf_rate_is_rejected(self):
        # A n = 2.5e199 * 1e200 is past the float range, where the CDF would be nan
        params = validate_mm_params(1e200, 2e200, 1)
        with pytest.raises(RangeError, match="overflows"):
            max_wait_cdf_mm1(params, "system", 1e200, 1.0)


class TestMaxWaitCdf:
    def test_gumbel_change_of_variables(self):
        # at y = scale * (ln[A n] + x) the CDF equals exp(-exp(-x)) exactly
        n = 20000.0
        asym = mm1_asymptotics(SINGLE, "system")
        for x in (-1.0, 0.0, 1.3, 4.0):
            y = asym.scale * (log(asym.rate_constant * n) + x)
            got = max_wait_cdf_mm1(SINGLE, "system", n, y)
            assert got == pytest.approx(exp(-exp(-x)), rel=1e-12)

    def test_limits_and_monotonicity(self):
        n = 5000.0
        values = [max_wait_cdf_mm1(SINGLE, "queue", n, y) for y in np.linspace(0, 400, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)
        asym = mm1_asymptotics(SINGLE, "queue")
        assert max_wait_cdf_mm1(SINGLE, "queue", n, 0.0) == pytest.approx(
            exp(-asym.rate_constant * n), rel=1e-12)

    def test_decreasing_in_horizon(self):
        assert (max_wait_cdf_mm1(SINGLE, "system", 40000.0, 30.0)
                < max_wait_cdf_mm1(SINGLE, "system", 20000.0, 30.0))

    def test_argument_validation(self):
        with pytest.raises(RangeError):
            max_wait_cdf_mm1(SINGLE, "system", 100.0, -1.0)
        with pytest.raises(RangeError):
            max_wait_cdf_mm1(SINGLE, "system", 0.0, 1.0)
        with pytest.raises(RangeError):
            max_wait_cdf_mm1(SINGLE, "everywhere", 100.0, 1.0)
        with pytest.raises(UnsupportedError):
            max_wait_cdf_mm1(TWO, "system", 100.0, 1.0)


class TestMeanWait:
    def test_reference_values(self):
        assert mean_wait(SINGLE, "queue") == pytest.approx(4.0, abs=1e-12)
        assert mean_wait(TWO, "queue") == pytest.approx(3.2, abs=1e-12)
        assert mean_wait(THREE, "queue") == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_system_adds_mean_service(self):
        for params in (SINGLE, TWO, THREE):
            assert mean_wait(params, "system") - mean_wait(params, "queue") == pytest.approx(
                1.0 / params.mu, rel=1e-12)

    def test_queue_wait_decreases_with_split_servers(self):
        # lambda = 1/3, mu = 1/(2c): more, slower servers shorten the queue wait
        assert mean_wait(SINGLE, "queue") > mean_wait(TWO, "queue") > mean_wait(THREE, "queue")

    def test_many_servers_match_birth_death_chain(self):
        for c in range(4, 9):
            for utilization in (0.1, 0.5, 0.8, 0.9):
                mu = 0.5
                params = validate_mm_params(utilization * c * mu, mu, c)
                expected = mm_queue_wait_birth_death(params.lam, mu, c)
                assert mean_wait(params, "queue") == pytest.approx(expected, rel=1e-12)
                assert mean_wait(params, "system") == pytest.approx(expected + 1.0 / mu, rel=1e-12)

    def test_one_to_three_servers_match_rational_forms(self):
        for c in (1, 2, 3):
            for mu in (0.25, 1.0, 3.0):
                for utilization in np.linspace(0.01, 0.99, 25):
                    lam = float(utilization) * c * mu
                    params = validate_mm_params(lam, mu, c)
                    assert mean_wait(params, "queue") == pytest.approx(
                        mm_queue_wait_rational(lam, mu, c), rel=1e-12)

    def test_recursion_stops_once_blocking_underflows(self):
        # offered load 100: the Erlang B probability underflows to 0.0 well before c = 2000
        many, fewer = validate_mm_params(100.0, 1.0, 10**6), validate_mm_params(100.0, 1.0, 2000)
        for kind in ("queue", "system"):
            assert mean_wait(many, kind) == mean_wait(fewer, kind)

    def test_overflowing_mean_wait_is_rejected(self):
        # c*mu - lambda rounds to 6.6e-316, so the mean queue wait is past 1e315
        params = validate_mm_params(4e-300 * (1 - 2**-53), 1e-300, 4)
        with pytest.raises(RangeError, match="overflows"):
            mean_wait(params, "queue")

    def test_gumbel_mean_consistency(self):
        # mean of the implied Gumbel law equals the expected-maximum formula
        n = 20000.0
        asym = mm1_asymptotics(SINGLE, "system")
        location = asym.scale * log(asym.rate_constant * n)
        implied_mean = location + EULER_GAMMA * asym.scale
        assert implied_mean == pytest.approx(
            expected_max_wait_mm1(SINGLE, "system", n), rel=1e-12)
