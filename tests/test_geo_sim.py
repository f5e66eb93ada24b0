"""Discrete-queue simulator: determinism, distributional checks, and the
agreement between simulated maxima and the analytic maximum law."""
from math import sqrt

import numpy as np
import pytest

import queuemax.geo_sim as geo_sim
from queuemax.cli import EXIT_NUMERIC, main
from queuemax import (ConvergenceError, GeoSimConfig, RangeError, analyze_geo, expected_max_length,
                      max_length_law, mean_queue_length, replicate_max_length,
                      simulate_max_length, substream_generator, substream_seed,
                      time_average_queue_length, validate_geo_params)

REFERENCE = validate_geo_params(1 / 3, 1 / 6, 3)
FAST_SINGLE = validate_geo_params(1 / 3, 1 / 2, 1)
TWO_SERVERS = validate_geo_params(0.3, 0.25, 2)  # walks of L = 4 slots, against 3 at c = 3
SCALAR_REPS = geo_sim.SCALAR_REPS  # c >= 2 chunks up to this wide go through _run_single


class TestConfig:
    def test_rejects_bad_horizon(self):
        with pytest.raises(RangeError):
            GeoSimConfig(REFERENCE, 0, 10, 1)

    def test_rejects_bad_reps(self):
        with pytest.raises(RangeError):
            GeoSimConfig(REFERENCE, 10, 0, 1)


class TestDeterminism:
    def test_single_run_repeatable(self):
        a = simulate_max_length(REFERENCE, 5000, seed=314159)
        b = simulate_max_length(REFERENCE, 5000, seed=314159)
        assert a == b

    def test_replication_repeatable(self):
        config = GeoSimConfig(REFERENCE, 2000, 64, seed=99)
        first = replicate_max_length(config)
        second = replicate_max_length(config)
        assert np.array_equal(first.samples, second.samples)
        assert np.array_equal(first.seeds, second.seeds)

    def test_reps_one_wraps_single_run(self):
        master = 4242
        config = GeoSimConfig(REFERENCE, 3000, 1, master)
        result = replicate_max_length(config)
        single = simulate_max_length(REFERENCE, 3000, seed=substream_seed(master, 0))
        assert int(result.samples[0]) == single
        assert result.se == 0.0

    # 1500 and 1503 slots end on a walk of 4 and of 3 slots at c = 2
    @pytest.mark.parametrize("reps", [16, SCALAR_REPS + 1])  # the second gathers at c >= 2
    @pytest.mark.parametrize("params,n", [(REFERENCE, 2500), (FAST_SINGLE, 2500),
                                          (TWO_SERVERS, 1500), (TWO_SERVERS, 1503)])
    def test_scalar_and_vector_paths_agree(self, params, n, reps):
        master = 2718
        config = GeoSimConfig(params, n, reps, master)
        vector = replicate_max_length(config).samples
        gens = [substream_generator(master, i) for i in range(reps)]
        scalar, _ = geo_sim._run_single(params, gens, n)
        assert vector.tolist() == scalar

    def test_schedule_independence(self, monkeypatch):
        # gathered blocks end on every shorter walk k < L: at c = 3 (800 slots) k = 1
        # with blocks of 1 and 7 (6-7 slots), k = 2 with 333 (266-267) and 4096; at c = 2
        # (802 slots) k = 1 with 1, k = 2 with 7 and 4096, k = 3 with 7 and 333
        # (267-268). Chunks of 7 replications
        # walk together at c >= 2; of chunks of SCALAR_REPS + 1 (29 and 21) the first gathers.
        for params, n in ((REFERENCE, 800), (FAST_SINGLE, 800), (TWO_SERVERS, 802)):
            config = GeoSimConfig(params, n, 50, seed=5)
            reference_samples = replicate_max_length(config).samples
            for block in (1, 7, 333, 4096):
                with monkeypatch.context() as patch:
                    patch.setattr(geo_sim, "BLOCK", block)
                    patch.setattr(geo_sim, "DRAW_CHUNK", 3)
                    chunked = []
                    for rep_chunk in (7, SCALAR_REPS + 1):
                        patch.setattr(geo_sim, "REP_CHUNK", rep_chunk)
                        chunked.append(replicate_max_length(config).samples)
                    gens = [substream_generator(5, i) for i in range(45, 50)]  # 2 sub-chunks
                    scalar, _ = geo_sim._run_single(params, gens, n)
                for samples in chunked:
                    assert np.array_equal(reference_samples, samples)
                assert scalar == reference_samples[45:].tolist()


class TestKernelChoice:
    """All kernels give identical maxima, so only a spy can see which one ran."""

    @pytest.mark.parametrize("params,reps,kernel", [
        (FAST_SINGLE, 1, "_lindley_maxima"),
        (FAST_SINGLE, SCALAR_REPS, "_lindley_maxima"),
        (FAST_SINGLE, 2 * geo_sim.DRAW_CHUNK - 1, "_lindley_maxima"),
        (FAST_SINGLE, 2 * geo_sim.DRAW_CHUNK, "_gather_maxima"),
        (TWO_SERVERS, 1, "_run_single"),
        (TWO_SERVERS, SCALAR_REPS, "_run_single"),
        (TWO_SERVERS, SCALAR_REPS + 1, "_gather_maxima"),
        (REFERENCE, 1, "_run_single"),
        (REFERENCE, SCALAR_REPS, "_run_single"),
        (REFERENCE, SCALAR_REPS + 1, "_gather_maxima"),
        (REFERENCE, 2 * geo_sim.DRAW_CHUNK - 1, "_gather_maxima"),
        (REFERENCE, 2 * geo_sim.DRAW_CHUNK, "_gather_maxima")])
    def test_run_many_picks_kernel_by_width(self, monkeypatch, params, reps, kernel):
        calls = []
        for name in ("_lindley_maxima", "_gather_maxima", "_run_single"):
            def spy(*args, _name=name, _real=getattr(geo_sim, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(geo_sim, name, spy)
        gens = [substream_generator(7, i) for i in range(reps)]
        geo_sim._run_many(params, 100, gens)
        assert calls == [kernel]  # one call per chunk, whatever its kernel


class TestStateCap:
    """The tripwire raises a typed error, so it holds under `python -O` too."""

    @pytest.mark.parametrize("reps", [8, SCALAR_REPS + 1])  # the second gathers at c = 3
    @pytest.mark.parametrize("params", [REFERENCE, FAST_SINGLE])
    def test_vector_path_raises(self, monkeypatch, params, reps):
        monkeypatch.setattr(geo_sim, "STATE_CAP", 3)
        with pytest.raises(ConvergenceError, match="state cap"):
            replicate_max_length(GeoSimConfig(params, 5000, reps, seed=1))

    @pytest.mark.parametrize("params", [REFERENCE, FAST_SINGLE])
    def test_scalar_path_raises(self, monkeypatch, params):
        monkeypatch.setattr(geo_sim, "STATE_CAP", 3)
        with pytest.raises(ConvergenceError, match="state cap"):
            simulate_max_length(params, 5000, seed=1)

    @pytest.mark.parametrize("reps", [8, SCALAR_REPS + 1])
    def test_below_cap_runs(self, monkeypatch, reps):
        config = GeoSimConfig(REFERENCE, 2000, reps, seed=1)
        peak = int(replicate_max_length(config).samples.max())
        monkeypatch.setattr(geo_sim, "STATE_CAP", peak + 1)
        assert int(replicate_max_length(config).samples.max()) == peak

    @pytest.mark.parametrize("reps", [8, SCALAR_REPS + 1])
    def test_cli_exits_numeric(self, monkeypatch, tmp_path, capsys, reps):
        monkeypatch.setattr(geo_sim, "STATE_CAP", 3)
        code = main(["simulate", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
                     "--n", "5000", "--reps", str(reps), "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert "state cap" in capsys.readouterr().err


class TestDistribution:
    def test_single_step_law(self):
        # After one step the maximum is the arrival indicator: P{M_1 = 1} = p
        config = GeoSimConfig(REFERENCE, 1, 20000, seed=8)
        result = replicate_max_length(config)
        assert set(np.unique(result.samples)) <= {0, 1}
        se = sqrt(REFERENCE.p * REFERENCE.q / config.reps)
        assert abs(result.mean - REFERENCE.p) < 3.0 * se

    def test_mean_maximum_matches_analytic_law(self):
        # horizon 1e5: replication mean within 0.15 of slope*ln(n) + intercept
        analysis = analyze_geo(REFERENCE)
        n = 10**5
        result = replicate_max_length(GeoSimConfig(REFERENCE, n, 2000, seed=2))
        assert abs(result.mean - expected_max_length(analysis, n)) <= 0.15

    def test_maximum_cdf_matches_clumping_prediction(self):
        analysis = analyze_geo(REFERENCE)
        n = 10**4
        result = replicate_max_length(GeoSimConfig(REFERENCE, n, 4000, seed=20190706))
        law = max_length_law(analysis, n)
        central = [k for k in range(3, 200) if 0.05 <= law.cdf(k) <= 0.95]
        assert len(central) >= 3
        for k in central:
            assert abs(float(result.ecdf.evaluate(k)) - law.cdf(k)) <= 0.02

    def test_single_server_cdf_matches_clumping_prediction(self):
        analysis = analyze_geo(FAST_SINGLE)
        n = 10**4
        result = replicate_max_length(GeoSimConfig(FAST_SINGLE, n, 4000, seed=11))
        law = max_length_law(analysis, n)
        central = [k for k in range(1, 40) if 0.05 <= law.cdf(k) <= 0.95]
        assert central  # the comparison must actually cover a few levels
        for k in central:
            assert abs(float(result.ecdf.evaluate(k)) - law.cdf(k)) <= 0.02

    def test_mean_maximum_nondecreasing_in_horizon(self):
        means, ses = [], []
        for n in (500, 1000, 2000):
            result = replicate_max_length(GeoSimConfig(REFERENCE, n, 3000, seed=42))
            means.append(result.mean)
            ses.append(result.se)
        for i in range(len(means) - 1):
            assert means[i + 1] >= means[i] - 3.0 * (ses[i] + ses[i + 1])

    def test_time_average_matches_stationary_mean(self):
        mean, se = time_average_queue_length(REFERENCE, 10**6, seed=909)
        assert se > 0.0
        assert abs(mean - mean_queue_length(REFERENCE)) < 3.0 * se

    def test_time_average_argument_validation(self):
        with pytest.raises(RangeError):
            time_average_queue_length(REFERENCE, 10, seed=1, batches=20)


class TestResultShape:
    def test_ecdf_terminates_at_one(self):
        result = replicate_max_length(GeoSimConfig(REFERENCE, 200, 300, seed=3))
        assert result.ecdf.probabilities[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(result.samples >= 0)
        assert result.samples.dtype == np.int64

    def test_seeds_are_substream_seeds(self):
        master = 77
        result = replicate_max_length(GeoSimConfig(REFERENCE, 100, 5, master))
        assert result.seeds.tolist() == [substream_seed(master, i) for i in range(5)]
