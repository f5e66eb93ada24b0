"""Reference values the benchmark checks program outputs against.

Nothing here imports queuemax: each value comes from a different route than
the library's own (numpy polynomial roots instead of bisection, the Erlang C
formula instead of the per-c rational forms, a fresh SplitMix64).
"""
from __future__ import annotations

from bisect import bisect_right
from math import exp, factorial, log

import numpy as np
from numpy.polynomial import polynomial as P

EULER_GAMMA = 0.5772156649015329
OMEGA_ABS_TOL = 1e-8     # acceptance criterion 01
ANALYTIC_REL_TOL = 1e-9  # closed forms evaluated two ways agree to rounding
MEAN_REL_TOL = 0.02      # acceptance criterion 09 (pooled mean waits)
GEO_MEAN_GAP = 0.15      # acceptance criterion 06 (mean of the maximum)
GEO_CDF_GAP = 0.02       # acceptance criterion 06 (ECDF against the law's CDF)

# Acceptance criterion 08: simulated mean maxima at lambda=1/3, n=20000, with
# mu = 1/2 (c=1) and mu = 1/6 (c=3): (max_sys ref, tol, max_que ref, tol).
MM_MAX_REFS = {1: (43.109, 1.0, 40.676, 1.0), 3: (64.1, 2.0, 38.3, 1.5)}

_MASK64 = (1 << 64) - 1


def omega_root(p: float, r: float, c: int) -> float:
    """The root in (0, 1) of ((qw+p)(rw+s)^c - w)/(w - 1)."""
    q, s = 1.0 - p, 1.0 - r
    poly = P.polysub(P.polymul([p, q], P.polypow([s, r], c)), [0.0, 1.0])
    quotient, _ = P.polydiv(poly, [-1.0, 1.0])
    roots = P.polyroots(quotient)
    inside = [z.real for z in np.atleast_1d(roots)
              if abs(z.imag) < 1e-12 and 0.0 < z.real < 1.0]
    if len(inside) != 1:
        raise ArithmeticError(f"expected one root in (0, 1), got {roots}")
    return float(inside[0])


def ecdf_gap(maxima: list[int], omega: float, beta: float, n: int) -> tuple[int, float]:
    """Levels k with 0.05 <= P{M_n <= k} <= 0.95 under the law exp(-beta n omega^k),
    and the largest |ECDF(k) - P{M_n <= k}| over them. `maxima` is sorted."""
    levels = [k for k in range(200) if 0.05 <= exp(-beta * n * omega**k) <= 0.95]
    deviation = max((abs(bisect_right(maxima, k) / len(maxima) - exp(-beta * n * omega**k))
                     for k in levels), default=float("inf"))
    return len(levels), deviation


def splitmix64(master: int, index: int) -> int:
    """Seed of replication `index`: the SplitMix64 output at state master+(index+1)*gamma."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def erlang_c_queue_wait(lam: float, mu: float, c: int) -> float:
    """Stationary mean wait in queue of M/M/c: C(c, a) / (c mu - lam)."""
    a = lam / mu
    top = a**c / factorial(c) / (1.0 - a / c)
    delay_probability = top / (sum(a**k / factorial(k) for k in range(c)) + top)
    return delay_probability / (c * mu - lam)


def mm1_expected_max_wait(lam: float, mu: float, n: float, kind: str) -> float:
    """Gumbel-limit E(max wait over [0, n]) of M/M/1, system or queue wait."""
    rho = lam / mu
    rate = lam * (1.0 - rho) ** 2 * (rho if kind == "queue" else 1.0)
    return (log(n) + EULER_GAMMA + log(rate)) / (mu - lam)


def rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(want), 1e-300)
