"""Independent oracles used by the tests.

Deliberately built on different machinery than the library paths they check:
dense numpy linear algebra for stationary vectors, direct Monte Carlo for
hitting probabilities, Cardano's formula for the three-server decay rate,
scan+bisection for real polynomial roots, and for the continuous queue a
truncated birth-death chain plus Little's law.
"""
from __future__ import annotations

from math import sqrt
from typing import Optional

import numpy as np

from queuemax import GeoParams, UnsupportedError, increment_distribution


def truncated_transition_matrix(params: GeoParams, size: int) -> np.ndarray:
    """Dense transition matrix on states 0..size-1, overflow mass absorbed at the top."""
    c = params.c
    matrix = np.zeros((size, size))
    for state in range(size):
        pmf = increment_distribution(params, min(state, c))
        for step, prob in zip(pmf.support, pmf.probabilities):
            target = min(max(state + int(step), 0), size - 1)
            matrix[state, target] += prob
    return matrix


def truncated_stationary_vector(params: GeoParams, size: int = 401) -> np.ndarray:
    """Stationary vector of the truncated chain: solve pi P = pi, sum pi = 1."""
    matrix = truncated_transition_matrix(params, size)
    system = matrix.T - np.eye(size)
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def decay_rate_omega_closed_form(params: GeoParams) -> Optional[float]:
    """Closed-form cubic solution for the three-server decay rate.

    Cardano's formula, an independent check on the bisection of
    `decay_rate_omega`. Returns None when the radicand 4(3q-r)^3 r^3 + chi^2 is
    negative (real cube-root arithmetic then no longer applies and the
    bisection path is authoritative).
    """
    if params.c != 3:
        raise UnsupportedError("closed form exists only for c = 3")
    p, q, r, s = params.p, params.q, params.r, params.s
    chi = -9.0 * q * r**2 + 2.0 * r**3 - 27.0 * q**2 * s
    radicand = 4.0 * (3.0 * q - r) ** 3 * r**3 + chi**2
    if radicand < 0.0:
        return None
    theta = sqrt(radicand)
    if chi + theta <= 0.0:
        return None

    def cbrt(x: float) -> float:
        return x ** (1.0 / 3.0) if x >= 0.0 else -((-x) ** (1.0 / 3.0))

    return ((-3.0 + 2.0 * r + 3.0 * p * s)
            + (3.0 * q - r) * r * cbrt(2.0 / (chi + theta))
            - cbrt((chi + theta) / 2.0)) / (3.0 * q * r)


def mc_hitting_probability(params: GeoParams, start: int, walks: int, seed: int,
                           floor: int = -80):
    """Direct simulation of the fully-busy walk: P{ever exactly hit 0 from start}.

    Walks that sink below `floor` are counted as misses; the truncation bias
    is bounded by omega^|floor|, far below the Monte Carlo noise here.
    Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    pmf = increment_distribution(params, params.c)
    steps = pmf.support.astype(np.int64)
    cumulative = np.cumsum(pmf.probabilities)
    position = np.full(walks, start, dtype=np.int64)
    hit = np.zeros(walks, dtype=bool)
    active = np.ones(walks, dtype=bool)
    for _ in range(10_000_000):
        remaining = int(active.sum())
        if remaining == 0:
            break
        draw = steps[np.searchsorted(cumulative, rng.random(remaining))]
        position[active] += draw
        landed = position == 0
        hit |= landed & active
        active &= ~landed & (position > floor)
    estimate = float(hit.mean())
    return estimate, sqrt(estimate * (1.0 - estimate) / walks)


def real_roots_by_bisection(coeffs, lo: float, hi: float, samples: int = 20000):
    """Real roots of a polynomial (ascending coeffs) found by scan + bisection."""
    def value(x: float) -> float:
        acc = 0.0
        for coeff in reversed(coeffs):
            acc = acc * x + coeff
        return acc

    grid = np.linspace(lo, hi, samples)
    roots = []
    for left, right in zip(grid[:-1], grid[1:]):
        f_left, f_right = value(left), value(right)
        if f_left == 0.0:
            roots.append(float(left))
            continue
        if f_left * f_right < 0.0:
            a, b = float(left), float(right)
            for _ in range(200):
                mid = 0.5 * (a + b)
                if value(a) * value(mid) <= 0.0:
                    b = mid
                else:
                    a = mid
            roots.append(0.5 * (a + b))
    return roots


def mm_queue_wait_birth_death(lam: float, mu: float, c: int, size: int = 800) -> float:
    """Mean queue wait of M/M/c from its truncated birth-death chain.

    Solves pi Q = 0, sum pi = 1 for the generator on states 0..size-1, then
    applies Little's law to the mean queue length: W_q = L_q / lambda.
    """
    states = np.arange(size)
    generator = np.zeros((size, size))
    generator[states[:-1], states[1:]] = lam
    generator[states[1:], states[:-1]] = np.minimum(states[1:], c) * mu
    generator[states, states] = -generator.sum(axis=1)
    # the normalization replaces the balance equation of state 0; replacing
    # that of the nearly massless top state instead costs most of the
    # relative accuracy of L_q at light load
    system = generator.T.copy()
    system[0, :] = 1.0
    rhs = np.zeros(size)
    rhs[0] = 1.0
    pi = np.linalg.solve(system, rhs)
    return float(np.dot(np.maximum(states - c, 0), pi)) / lam


def mm_queue_wait_rational(lam: float, mu: float, c: int) -> float:
    """Mean queue wait of M/M/c as an explicit rational function, c = 1, 2, 3."""
    forms = {
        1: lambda: lam / ((mu - lam) * mu),
        2: lambda: lam**2 / ((2.0 * mu - lam) * (2.0 * mu + lam) * mu),
        3: lambda: lam**3 / ((3.0 * mu - lam) * (lam**2 + 4.0 * lam * mu + 6.0 * mu**2) * mu),
    }
    return forms[c]()


def geo_max_by_recursion(p: float, r: float, c: int, n: int, gen: np.random.Generator) -> int:
    """Maximum queue length of the exact slot recursion, one slot at a time.

    Each slot takes c+1 uniforms from the stream: the arrival's, then one per
    server. With a = [arrival], C[k] the completions among the first k
    servers and C[0] = 0, the state moves as u <- u + a - C[min(u, c)].
    """
    u = peak = 0
    for row in gen.random((n, c + 1)).tolist():
        completions = [0]
        for uniform in row[1:]:
            completions.append(completions[-1] + (uniform < r))
        u += (row[0] < p) - completions[min(u, c)]
        peak = max(peak, u)
    return peak
