"""Are simulated wait-time maxima actually Gumbel-shaped?

For several servers there is no proven limit law, but histograms of simulated
maxima look Gumbel. This script quantifies the impression: it fits a Gumbel
law by matching two moments and reports the KS distance between the fitted
CDF and the empirical one. The match is close but this is a descriptive
check, not a test — the parameters come from the same data.

Run:  python demos/gumbel_shape_check.py   (about ten seconds)
"""
from queuemax import (MMSimConfig, gumbel_fit_two_moment, ks_distance,
                      replicate_wait_maxima, validate_mm_params)

HORIZON = 20_000.0
REPS = 1_000

print(f"interval [0, {HORIZON:.0f}], {REPS} replications per server count\n")
print(" c   quantity    location    scale     KS distance")
for c in (1, 2, 3):
    params = validate_mm_params(1 / 3, 1 / (2 * c), c)
    run = replicate_wait_maxima(MMSimConfig(params, HORIZON, REPS, seed=100 + c))
    for label, sim in (("max W_sys", run.max_sys), ("max W_que", run.max_que)):
        fit = gumbel_fit_two_moment(sim.samples)
        distance = ks_distance(sim.ecdf, fit.cdf)
        print(f" {c}   {label}   {fit.location:8.3f}   {fit.scale:7.3f}   {distance:11.4f}")

print("\nsmall KS distances say 'roughly Gumbel'; deciding whether the limit")
print("truly is Gumbel for c >= 2 needs analysis, not more replications")
