"""How long can the line get?

Walks through the discrete-time queue pipeline at the reference parameters
(p = 1/3, r = 1/6, three servers): decay rate, stationary boundary, hitting
probabilities, clump rate, and the resulting law of the running maximum —
then checks it against a quick simulation, and closes with the one-fast-
versus-three-slow comparison.

Run:  python demos/line_length_extremes.py   (about a second)
"""
from queuemax import (GeoSimConfig, analyze_geo, expected_max_length,
                      max_length_law, mean_queue_length, replicate_max_length,
                      validate_geo_params)

params = validate_geo_params(1 / 3, 1 / 6, 3)
analysis = analyze_geo(params)

print("== analytic pipeline (p=1/3, r=1/6, c=3) ==")
print(f"tail decay rate       omega = {analysis.omega:.10f}")
print(f"boundary masses       pi_0..pi_2 = "
      + ", ".join(f"{b:.10f}" for b in analysis.pi_boundary))
print(f"geometric-tail mass   pi_3 = {analysis.pi_c:.10f}")
print(f"return probability    nu_0 = {analysis.nu.nu0:.10f}")
print(f"descent hit           nu_-1 = {analysis.nu.nu_minus1:.10f}")
print(f"ascent hits           nu_1, nu_2 = {analysis.nu.nu_up[0]:.10f}, "
      f"{analysis.nu.nu_up[1]:.10f}")
print(f"clump rate            beta = {analysis.beta:.10f}")

n = 10_000
law = max_length_law(analysis, n)
print(f"\nmaximum law over n={n} steps: P(M_n <= k) = exp(-beta n omega^k)")
print(f"expected maximum:     {law.slope:.6f} * ln(n) + {law.intercept:.6f} "
      f"= {law.mean():.3f}")

print("\n== simulation cross-check (2000 replications) ==")
result = replicate_max_length(GeoSimConfig(params, n, reps=2000, seed=42))
print(f"simulated mean maximum: {result.mean:.3f} +- {result.se:.3f} "
      f"(prediction {law.mean():.3f})")
print("\n   k   P(M_n<=k) predicted   empirical")
for k in range(int(result.samples.min()), int(result.samples.max()) + 1):
    predicted = law.cdf(k)
    if 0.01 <= predicted <= 0.99:
        print(f"  {k:2d}   {predicted:>18.4f}   {result.ecdf.evaluate(k):>9.4f}")

print("\n== one fast server vs three slow ones (same arrivals) ==")
fast = validate_geo_params(1 / 3, 1 / 2, 1)
fast_analysis = analyze_geo(fast)
for horizon in (10**3, 10**4, 10**5):
    three = expected_max_length(analysis, horizon)
    one = expected_max_length(fast_analysis, horizon)
    print(f"n={horizon:>7,}: E(max) three slow = {three:6.2f}   one fast = {one:6.2f}")
print(f"mean line length:  three slow = {mean_queue_length(params):.5f}   "
      f"one fast = {mean_queue_length(fast):.5f}")
print("the single fast server wins on both counts")
