"""The continuous-time limit: the geo queue with one slot of h time units tends to M/M/c.

With p = lambda*h and r = mu*h, the geo queue converges to the M/M/c queue
as h -> 0, so each geo quantity tends to its M/M/c counterpart:

- the tail decay rate omega tends to the load rho;
- the clump rate per unit time beta/h tends to lambda*pi_c*(1 - rho)/rho^c,
  pi_c the Erlang probability of exactly c in system;
- the stationary mean queue length tends to lambda*W (Little's law), W the
  mean wait in system.

Each error is O(h): over a ladder of h it must shrink by a factor inside
SHRINK_BAND per decade (measured 9.95-11.0 at rho = 0.8, mu = 0.5). No
simulation runs here.
"""
from math import factorial

import pytest

from queuemax import (DegenerateRootsError, analyze_geo, mean_queue_length, mean_wait,
                      validate_geo_params, validate_mm_params)

RHO, MU = 0.8, 0.5
SHRINK_BAND = (8.0, 12.0)
H = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
FINEST = {1: 1e-5, 2: 1e-4, 3: 1e-3}  # the finest h at which each c is certified today


def erlang_pi_c(c: int) -> float:
    """M/M/c stationary probability of exactly c customers in system."""
    a = c * RHO
    top = a**c / factorial(c)
    return top / (sum(a**k / factorial(k) for k in range(c)) + top / (1.0 - RHO))


def limit_errors(c: int, h: float) -> tuple[float, float, float]:
    """(omega - rho, beta/h - its limit, mean queue length - lambda*W) at slot length h."""
    lam = RHO * c * MU
    params = validate_geo_params(lam * h, MU * h, c)
    analysis = analyze_geo(params)
    beta_limit = lam * erlang_pi_c(c) * (1.0 - RHO) / RHO**c
    little = lam * mean_wait(validate_mm_params(lam, MU, c), "system")
    return (analysis.omega - RHO, analysis.beta / h - beta_limit,
            mean_queue_length(params) - little)


def shrinks_like_h(c: int, h: float) -> None:
    coarse, fine = limit_errors(c, 10.0 * h), limit_errors(c, h)
    for name, before, after in zip(("omega", "beta/h", "mean length"), coarse, fine):
        assert SHRINK_BAND[0] < before / after < SHRINK_BAND[1], (name, before, after)


@pytest.mark.parametrize("c,h", [(c, h) for c in (1, 2, 3) for h in H[1:] if h >= FINEST[c]])
def test_error_shrinks_tenfold_per_decade(c, h):
    shrinks_like_h(c, h)


# ROADMAP item 2 (nu in closed form from omega) certifies these fine-slot points;
# they then XPASS and the markers go
@pytest.mark.xfail(strict=True, raises=DegenerateRootsError,
                   reason="nu's root-and-solve fails at fine slots; fixed by ROADMAP item 2")
@pytest.mark.parametrize("c,h", [(2, 1e-5), (3, 1e-4)])
def test_error_shrinks_tenfold_at_finer_slots(c, h):
    shrinks_like_h(c, h)
