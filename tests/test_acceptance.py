"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The statistical criteria use fixed master seeds; tolerances were
chosen so that typical seeds pass with margin, and the frozen seeds are not
special beyond being the first ones tried.
"""
import time
from math import log

import numpy as np
import pytest

from queuemax import (EULER_GAMMA, GeoSimConfig, MMSimConfig, analyze_geo,
                      decay_rate_omega, expected_max_length, expected_max_wait_mm1,
                      gumbel_fit_two_moment, hitting_probabilities,
                      increment_distribution, max_length_law, mean_queue_length,
                      replicate_max_length, replicate_wait_maxima,
                      simulate_wait_detail, stationary_distribution,
                      validate_geo_params, validate_mm_params)
from queuemax.cli import main as cli_main
from oracles import truncated_transition_matrix

GEO3 = validate_geo_params(1 / 3, 1 / 6, 3)
GEO1 = validate_geo_params(1 / 3, 1 / 2, 1)
MM_CONFIGS = {1: validate_mm_params(1 / 3, 1 / 2, 1),
              2: validate_mm_params(1 / 3, 1 / 4, 2),
              3: validate_mm_params(1 / 3, 1 / 6, 3)}


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def mm_runs():
    """Shared M/M/c campaigns at n=20000 for criteria 8 and 9."""
    return {c: replicate_wait_maxima(MMSimConfig(MM_CONFIGS[c], 20000.0, 1000, seed=7))
            for c in (1, 2, 3)}


def test_criterion_01_decay_rate_and_pi3():
    omega = decay_rate_omega(GEO3)
    _, pi_c = stationary_distribution(GEO3)
    ok = abs(omega - 0.5744080010) < 1e-8 and abs(pi_c - 0.1777380492) < 1e-8
    runtime = best_time(lambda: (decay_rate_omega(GEO3), stationary_distribution(GEO3)))
    ok = ok and runtime < 1e-3
    report(1, ok, f"omega={omega:.10f}, pi_3={pi_c:.10f}, runtime={runtime * 1e6:.0f}us")


def test_criterion_02_hitting_probabilities():
    nu = hitting_probabilities(GEO3)
    targets = [(nu.nu0, 0.8437587438), (nu.nu_minus1, 0.9309681530),
               (nu.nu_up[0], 0.5744080010), (nu.nu_up[1], 0.3299445517)]
    ok = all(abs(got - want) < 1e-8 for got, want in targets)
    runtime = best_time(lambda: hitting_probabilities(GEO3))
    ok = ok and runtime < 1e-2
    report(2, ok, "nu0={:.10f}, nu_-1={:.10f}, nu1={:.10f}, nu2={:.10f}, runtime={:.2f}ms".format(
        nu.nu0, nu.nu_minus1, nu.nu_up[0], nu.nu_up[1], runtime * 1e3))


def test_criterion_03_clump_rate_and_moment_coefficients():
    analysis = analyze_geo(GEO3)
    law = max_length_law(analysis, 100)
    ok = (abs(analysis.beta - 0.0841657058) < 1e-8
          and abs(law.slope - 1.8037019224) < 1e-8
          and abs(law.intercept - (-2.9229790566)) < 1e-8)
    report(3, ok, f"beta={analysis.beta:.10f}, slope={law.slope:.10f}, "
                  f"intercept={law.intercept:.10f}")


def test_criterion_04_mean_queue_lengths():
    one = mean_queue_length(GEO1)
    three = mean_queue_length(GEO3)
    ok = abs(one - 1.33333) < 1e-4 and abs(three - 2.56365) < 1e-4
    report(4, ok, f"mean length c=1: {one:.6f}, c=3: {three:.6f}")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    # stationarity of the analytic vector on the truncated chain
    matrix = truncated_transition_matrix(GEO3, 401)
    analysis = analyze_geo(GEO3)
    full = np.array([analysis.pi(j) for j in range(401)])
    stationarity_gap = float(np.max(np.abs(full @ matrix - full)))

    # recursion residual with nu_3 := omega^3 (and nu_4 := omega^4)
    alpha = dict(enumerate(increment_distribution(GEO3)[3].tolist(), -3))
    omega, nu = analysis.omega, analysis.nu
    chain = [1.0, nu.nu_up[0], nu.nu_up[1], omega**3, omega**4]
    recursion_gap = abs(chain[1] - sum(alpha[1 - m] * chain[m] for m in range(5)))

    # skip-free identities across the stability region
    grid_gap = 0.0
    for p in np.linspace(0.1, 0.9, 5):
        for r in np.linspace(0.1, 0.9, 5):
            if p < 3 * r:
                params = validate_geo_params(float(p), float(r), 3)
                w = decay_rate_omega(params)
                record = hitting_probabilities(params)
                grid_gap = max(grid_gap, abs(record.nu_up[0] - w),
                               abs(record.nu_up[1] - w**2))
    runtime = time.perf_counter() - start
    ok = (stationarity_gap < 1e-10 and recursion_gap < 1e-9
          and grid_gap < 1e-8 and runtime < 1.0)
    report(5, ok, f"||piP-pi||={stationarity_gap:.2e}, recursion={recursion_gap:.2e}, "
                  f"grid nu gap={grid_gap:.2e}, runtime={runtime:.2f}s")


def test_criterion_06_geo_simulation_vs_heuristic():
    analysis = analyze_geo(GEO3)

    n_cdf = 10**4
    cdf_run = replicate_max_length(GeoSimConfig(GEO3, n_cdf, 10**4, seed=20190706))
    law = max_length_law(analysis, n_cdf)
    central = [k for k in range(3, 200) if 0.05 <= law.cdf(k) <= 0.95]
    deviations = [abs(float(cdf_run.ecdf.evaluate(k)) - law.cdf(k)) for k in central]
    cdf_gap = max(deviations)

    n_mean = 10**5
    mean_run = replicate_max_length(GeoSimConfig(GEO3, n_mean, 4000, seed=1))
    mean_gap = abs(mean_run.mean - expected_max_length(analysis, n_mean))

    ok = cdf_gap <= 0.02 and mean_gap <= 0.15 and len(deviations) >= 3
    report(6, ok, f"max CDF deviation={cdf_gap:.4f} (<=0.02) over {len(deviations)} levels, "
                  f"mean gap={mean_gap:.4f} (<=0.15)")


def test_criterion_07_mm1_analytic_formulas():
    params = MM_CONFIGS[1]
    n1, n2 = 1000.0, 4000.0
    checks = []
    for kind, intercept_ref in (("system", -16.31172), ("queue", -18.74451)):
        v1 = expected_max_wait_mm1(params, kind, n1)
        v2 = expected_max_wait_mm1(params, kind, n2)
        slope = (v2 - v1) / (log(n2) - log(n1))
        intercept = v1 - slope * log(n1)
        checks.append(abs(slope - 6.0) < 1e-4 and abs(intercept - intercept_ref) < 1e-4)
    sys_value = expected_max_wait_mm1(params, "system", 20000.0)
    que_value = expected_max_wait_mm1(params, "queue", 20000.0)
    checks.append(abs(sys_value - 43.109) < 1e-3)
    checks.append(abs(que_value - 40.676) < 1e-3)
    report(7, all(checks), f"coefficients ok={checks[:2]}, "
                           f"E(max) at n=20000: {sys_value:.4f}/{que_value:.4f}")


def test_criterion_08_mm_simulated_maxima(mm_runs):
    targets = {1: (43.109, 1.0, 40.676, 1.0), 2: (51.0, 1.5, 39.4, 1.5),
               3: (64.1, 2.0, 38.3, 1.5)}
    gaps = {}
    ok = True
    for c, (sys_ref, sys_tol, que_ref, que_tol) in targets.items():
        run = mm_runs[c]
        sys_gap = abs(run.max_sys.mean - sys_ref)
        que_gap = abs(run.max_que.mean - que_ref)
        gaps[c] = (sys_gap, que_gap)
        ok = ok and sys_gap < sys_tol and que_gap < que_tol
    sys_means = [mm_runs[c].max_sys.mean for c in (1, 2, 3)]
    que_means = [mm_runs[c].max_que.mean for c in (1, 2, 3)]
    ok = ok and sys_means[0] < sys_means[1] < sys_means[2]
    ok = ok and que_means[0] > que_means[1] > que_means[2]
    report(8, ok, f"max_sys means={[f'{m:.2f}' for m in sys_means]} (increasing), "
                  f"max_que means={[f'{m:.2f}' for m in que_means]} (decreasing), "
                  f"gaps={gaps}")


def test_criterion_09_mm_mean_waits_and_conservation(mm_runs):
    targets = {1: 4.0, 2: 3.2, 3: 8.0 / 3.0}
    ok = True
    pooled = {}
    for c, target in targets.items():
        pooled[c] = mm_runs[c].pooled_mean_que
        ok = ok and abs(pooled[c] - target) / target < 0.02
    detail = simulate_wait_detail(MM_CONFIGS[2], 5000.0, seed=404)
    conservation = bool(np.array_equal(detail.wait_sys, detail.wait_que + detail.services))
    ok = ok and conservation
    report(9, ok, f"pooled E(W_que)={ {c: f'{v:.4f}' for c, v in pooled.items()} } "
                  f"vs {targets}, conservation exact={conservation}")


def test_criterion_10_properties_determinism_gumbel(tmp_path):
    # byte-identical sample files for a fixed seed, via the CLI
    args = ["simulate", "geo", "--p", "1/3", "--r", "1/6", "--c", "3",
            "--n", "400", "--reps", "50", "--seed", "77"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(args + ["--out", str(out_a)])
    code_b = cli_main(args + ["--out", str(out_b)])
    identical = ((out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes())

    # two-moment fit recovers a synthetic Gumbel within 3 SE at 1e5 draws
    size = 10**5
    location_true, scale_true = 3.0, 2.0
    uniforms = np.random.default_rng(1234).random(size)
    samples = location_true - scale_true * np.log(-np.log(uniforms))
    fit = gumbel_fit_two_moment(samples)
    # delta-method SEs with the sample's own higher moments
    sd = float(np.std(samples, ddof=1))
    centered = samples - samples.mean()
    mu3, mu4 = float(np.mean(centered**3)), float(np.mean(centered**4))
    var_sd = (mu4 - sd**4) / (4.0 * sd**2 * size)
    se_scale = np.sqrt(6.0) / np.pi * np.sqrt(var_sd)
    cov = mu3 / (2.0 * sd * size)
    se_location = float(np.sqrt(sd**2 / size + EULER_GAMMA**2 * (6.0 / np.pi**2) * var_sd
                                - 2.0 * EULER_GAMMA * np.sqrt(6.0) / np.pi * cov))
    fit_ok = (abs(fit.scale - scale_true) < 3.0 * se_scale
              and abs(fit.location - location_true) < 3.0 * se_location)

    ok = code_a == 0 and code_b == 0 and identical and fit_ok
    report(10, ok, f"byte-identical samples={identical}, gumbel fit "
                   f"loc={fit.location:.4f} scale={fit.scale:.4f} within 3 SE={fit_ok}; "
                   "module property suites run as the rest of this test directory")
