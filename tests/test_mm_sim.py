"""Continuous-time queue simulator: mechanics, conservation, and agreement
with both the single-server asymptotics and the stationary mean waits."""
from dataclasses import fields
from math import inf, nan, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import service_starts_by_server_scan
from queuemax import (MMSimConfig, RangeError, WaitDetail, assign_service_starts,
                      expected_max_wait_mm1, mean_wait, replicate_wait_maxima,
                      simulate_wait_detail, substream_seed, validate_mm_params)
from queuemax import mm_sim

SINGLE = validate_mm_params(1 / 3, 1 / 2, 1)
TWO = validate_mm_params(1 / 3, 1 / 4, 2)
THREE = validate_mm_params(1 / 3, 1 / 6, 3)


class TestAssignment:
    def test_single_customer_never_queues(self):
        starts = assign_service_starts(np.array([4.2]), np.array([1.7]), c=2)
        assert starts.tolist() == [4.2]

    def test_idle_servers_serve_simultaneous_arrivals(self):
        # two idle servers, two simultaneous arrivals: both start on time
        starts = assign_service_starts(np.array([0.0, 0.0]), np.array([5.0, 5.0]), c=2)
        assert starts.tolist() == [0.0, 0.0]

    def test_fifo_contention(self):
        # one server: second customer waits for the first to finish
        starts = assign_service_starts(np.array([0.0, 1.0]), np.array([3.0, 1.0]), c=1)
        assert starts.tolist() == [0.0, 3.0]

    def test_monotone_starts_single_server(self):
        detail = simulate_wait_detail(SINGLE, 5000.0, seed=21)
        assert np.all(np.diff(detail.starts) >= 0.0)

    def test_validation(self):
        with pytest.raises(RangeError):
            assign_service_starts(np.array([0.0]), np.array([1.0, 2.0]), c=1)
        with pytest.raises(RangeError):
            assign_service_starts(np.array([0.0]), np.array([1.0]), c=0)

    # integer-valued gaps and services make exact ties among free times common
    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(1, 12),
           pairs=st.one_of(
               st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=80),
               st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), max_size=80)))
    @example(c=3, pairs=[])
    def test_heap_matches_server_scan(self, c, pairs):
        table = np.array(pairs, dtype=np.float64).reshape(-1, 2)
        arrivals, services = np.cumsum(table[:, 0]), table[:, 1]
        starts = assign_service_starts(arrivals, services, c)
        assert np.array_equal(starts, service_starts_by_server_scan(arrivals, services, c))


class TestSingleRun:
    def test_conservation_exact_per_customer(self):
        for params, seed in ((SINGLE, 1), (TWO, 2), (THREE, 3)):
            detail = simulate_wait_detail(params, 3000.0, seed=seed)
            assert np.array_equal(detail.wait_sys, detail.wait_que + detail.services)
            assert np.all(detail.wait_que >= 0.0)

    def test_empty_interval(self):
        # lambda * n tiny: almost every run is empty, and empties report zeros
        tiny = validate_mm_params(1e-9, 1.0, 1)
        result = replicate_wait_maxima(MMSimConfig(tiny, 1.0, reps=1, seed=5))
        assert result.customers.tolist() == [0]
        for sim in (result.max_sys, result.max_que, result.mean_sys, result.mean_que):
            assert sim.samples.tolist() == [0.0]
        assert (result.pooled_mean_sys, result.pooled_mean_que) == (0.0, 0.0)

    def test_maxima_dominate_means(self):
        result = replicate_wait_maxima(MMSimConfig(TWO, 5000.0, reps=1, seed=9))
        (max_sys,), (max_que,) = result.max_sys.samples, result.max_que.samples
        (mean_sys,), (mean_que,) = result.mean_sys.samples, result.mean_que.samples
        assert max_sys >= max_que >= 0.0
        assert max_sys >= mean_sys
        assert mean_sys >= mean_que

    def test_repeatable(self):
        a = simulate_wait_detail(THREE, 2000.0, seed=123)
        b = simulate_wait_detail(THREE, 2000.0, seed=123)
        for field in fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_interval_validation(self):
        for n in (0.0, inf, nan):
            with pytest.raises(RangeError):
                simulate_wait_detail(SINGLE, n, seed=1)
            with pytest.raises(RangeError):
                MMSimConfig(SINGLE, n, 10, 1)
        with pytest.raises(RangeError):
            MMSimConfig(SINGLE, 100.0, 0, 1)

    def test_inconsistent_waits_rejected(self, monkeypatch):
        # queue waits above system waits break the check over the whole table
        def corrupt(params, n, gen):
            ones = np.ones(3)
            return WaitDetail(ones, ones, ones, 2.0 * ones, ones)

        monkeypatch.setattr(mm_sim, "_wait_detail", corrupt)
        with pytest.raises(RangeError):
            replicate_wait_maxima(MMSimConfig(SINGLE, 10.0, 2, seed=1))


class TestReplication:
    def test_determinism_and_schedule_independence(self):
        config = MMSimConfig(TWO, 500.0, 40, seed=17)
        first = replicate_wait_maxima(config)
        second = replicate_wait_maxima(config)
        assert np.array_equal(first.max_sys.samples, second.max_sys.samples)
        assert np.array_equal(first.mean_que.samples, second.mean_que.samples)
        assert first.pooled_mean_que == second.pooled_mean_que

    def test_seeds_are_substream_seeds(self):
        config = MMSimConfig(SINGLE, 100.0, 4, seed=55)
        result = replicate_wait_maxima(config)
        assert result.max_sys.seeds.tolist() == [substream_seed(55, i) for i in range(4)]

    def test_single_server_maxima_near_asymptotics(self):
        n = 20000.0
        result = replicate_wait_maxima(MMSimConfig(SINGLE, n, 400, seed=7))
        for sim, kind in ((result.max_sys, "system"), (result.max_que, "queue")):
            target = expected_max_wait_mm1(SINGLE, kind, n)
            assert abs(sim.mean - target) < 3.0 * sim.se + 0.25  # 0.25 covers finite-n bias

    def test_two_and_three_server_estimates(self):
        # reference estimates at n=20000: about 51.0/39.4 (c=2) and 64.1/38.3 (c=3)
        n = 20000.0
        res2 = replicate_wait_maxima(MMSimConfig(TWO, n, 400, seed=7))
        res3 = replicate_wait_maxima(MMSimConfig(THREE, n, 400, seed=7))
        assert abs(res2.max_sys.mean - 51.0) < 3.0 * res2.max_sys.se + 0.5
        assert abs(res2.max_que.mean - 39.4) < 3.0 * res2.max_que.se + 0.5
        assert abs(res3.max_sys.mean - 64.1) < 3.0 * res3.max_sys.se + 0.5
        assert abs(res3.max_que.mean - 38.3) < 3.0 * res3.max_que.se + 0.5

    def test_pooled_mean_waits_match_closed_forms(self):
        # within 2% at n=20000 for each server count
        n = 20000.0
        for params in (SINGLE, TWO, THREE):
            result = replicate_wait_maxima(MMSimConfig(params, n, 200, seed=31))
            target = mean_wait(params, "queue")
            assert abs(result.pooled_mean_que - target) / target < 0.02
            target_sys = mean_wait(params, "system")
            assert abs(result.pooled_mean_sys - target_sys) / target_sys < 0.02

    def test_fraction_of_immediate_service_single_server(self):
        # classical fact: P{no queueing} = 1 - rho for one server; waits are
        # serially correlated, so the SE comes from between-run variation
        fractions = []
        for i in range(50):
            detail = simulate_wait_detail(SINGLE, 2000.0, seed=substream_seed(62, i))
            fractions.append(float(np.mean(detail.wait_que == 0.0)))
        fractions = np.asarray(fractions)
        se = float(fractions.std(ddof=1) / sqrt(fractions.size))
        assert abs(fractions.mean() - (1.0 - SINGLE.rho_single)) < 3.0 * se

    def test_pooled_weights_by_customer_count(self):
        config = MMSimConfig(SINGLE, 50.0, 30, seed=3)
        result = replicate_wait_maxima(config)
        weights = result.customers.astype(float)
        expected = float(np.dot(result.mean_que.samples, weights) / weights.sum())
        assert result.pooled_mean_que == pytest.approx(expected, rel=1e-12)
