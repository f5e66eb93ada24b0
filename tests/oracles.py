"""Independent oracles used by the tests.

Deliberately built on different machinery than the library paths they check:
dense numpy linear algebra for stationary vectors, direct Monte Carlo and
closed forms in omega for hitting probabilities, Cardano's formula for the
three-server decay rate, exact rational arithmetic for the decay rate at
heavy traffic and for the boundary law, scan+bisection for real polynomial
roots, and for the continuous queue a truncated birth-death chain plus
Little's law and a per-server scan for FIFO service starts. The `geo`
stream's reference walks each slot's cumulative increment law in plain
Python, without the simulator's decode table, and replication seeds come
from SplitMix64 in Python integers instead of wrapping uint64 arrays.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, inf, sqrt
from typing import Optional

import numpy as np

from queuemax import GeoParams, UnsupportedError, increment_distribution


def truncated_transition_matrix(params: GeoParams, size: int) -> np.ndarray:
    """Dense transition matrix on states 0..size-1, overflow mass absorbed at the top."""
    c = params.c
    table = increment_distribution(params)
    matrix = np.zeros((size, size))
    for state in range(size):
        busy = min(state, c)
        for step, prob in enumerate(table[busy, c - busy:], -busy):
            target = min(max(state + step, 0), size - 1)
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


def omega_by_exact_bisection(params: GeoParams, bits: int = 80) -> Fraction:
    """The root in (0, 1) of w = (qw+p)(rw+s)^c, in exact rational arithmetic.

    p and r are the exact values of their floats, with q = 1-p and s = 1-r
    exactly. The gap w - (qw+p)(rw+s)^c is negative on (0, omega) and
    positive on (omega, 1); computed exactly, it cannot cancel near its root
    at 1, so bisection of its sign is an independent check on the float
    cut balance. Returns the middle of a bracket 2^-bits wide.
    """
    p, r = Fraction(params.p), Fraction(params.r)
    q, s = 1 - p, 1 - r
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        if mid - (q * mid + p) * (r * mid + s) ** params.c < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def stationary_by_exact_column_balance(params: GeoParams, bits: int = 120):
    """Boundary masses and pi_c from the column balances, in exact rational arithmetic.

    The increment laws are built from the exact values of p and r, and omega
    comes from `omega_by_exact_bisection`. Column k's balance
    pi_k = sum_{j=k-1..k+c} pi_j P_{min(j,c)}(X = k - j), back-substituted for
    k = c..1 against the tail pi_j = omega^(j-c) pi_c, subtracts nearly equal
    terms; exact arithmetic loses nothing to them, so only omega's 2^-bits
    bracket is left, far below float resolution. An independent check on the
    library's float cut balance. Returns floats ((pi_0..pi_{c-1}), pi_c).
    """
    c = params.c
    p, r = Fraction(params.p), Fraction(params.r)
    q, s = 1 - p, 1 - r
    omega = omega_by_exact_bisection(params, bits)
    law = [[Fraction(0)] * (c + 2) for _ in range(c + 1)]  # law[busy][c + step]
    for busy, row in enumerate(law):
        for d in range(busy + 1):  # d departures
            binom = comb(busy, d) * r**d * s**(busy - d)
            row[c + 1 - d] += p * binom
            row[c - d] += q * binom
    ratio = {j: omega ** (j - c) for j in range(c, 2 * c + 1)}  # pi_j / pi_c
    for k in range(c, 0, -1):
        rest = ratio[k] - sum(ratio[j] * law[min(j, c)][c + k - j] for j in range(k, k + c + 1))
        ratio[k - 1] = rest / law[k - 1][c + 1]
    pi_c = 1 / (1 / (1 - omega) + sum(ratio[j] for j in range(c)))
    return tuple(float(ratio[j] * pi_c) for j in range(c)), float(pi_c)


def mc_hitting_probability(params: GeoParams, start: int, walks: int, seed: int,
                           floor: int = -80):
    """Direct simulation of the fully-busy walk: P{ever exactly hit 0 from start}.

    Walks that sink below `floor` are counted as misses; the truncation bias
    is bounded by omega^|floor|, far below the Monte Carlo noise here.
    Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    steps = np.arange(-params.c, 2)
    cumulative = np.cumsum(increment_distribution(params)[params.c])
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


def service_starts_by_server_scan(arrivals, services, c: int) -> np.ndarray:
    """FIFO service starts by scanning all c server free times per customer.

    Each customer takes the lowest-index server among those that free
    earliest and starts at max(arrival, its free time).
    """
    free = [0.0] * c
    starts = np.empty(len(arrivals))
    for i, (arrival, service) in enumerate(zip(arrivals, services)):
        j = min(range(c), key=free.__getitem__)
        start = arrival if arrival > free[j] else free[j]
        starts[i] = start
        free[j] = start + service
    return starts


def splitmix64(master: int, index: int) -> int:
    """Seed of replication `index`: the SplitMix64 output at state master+(index+1)*gamma."""
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def geo_max_by_recursion(p: float, r: float, c: int, n: int, gen: np.random.Generator,
                         edges=None):
    """Maximum queue length of the exact slot recursion, and its path sums, one slot at a time.

    Each slot takes one uniform U from the stream. With k = min(u, c) busy
    servers, the step walks down the cumulative increment law of k servers
    from +1: it is +1 if U < P(+1), else 0 if U < P(+1) + P(0), and so on,
    the sums accumulated in that order. Where rounding puts the j-th sum of
    law k above the j-th of law k-1, or below its (j-1)-th, it is moved
    onto that bound, so one more busy server lowers a step by 0 or 1.
    Returns the maximum and the sums of u over slots (edges[i], edges[i+1]]
    (by default the whole run).
    """
    params = GeoParams(p, r, c)
    edges = [0, n] if edges is None else list(edges)
    laws = []
    table = increment_distribution(params)
    for busy in range(c + 1):
        probabilities = table[busy, c - busy:].tolist()  # steps -busy..+1
        running, cumulative = 0.0, []
        for prob in reversed(probabilities[1:]):  # +1, 0, ..., 1 - busy
            running += prob
            cumulative.append(running)
        if busy:
            upper = laws[busy - 1] + [inf]
            lower = [-inf] + laws[busy - 1]
            cumulative = [min(max(s, lower[j]), upper[j]) for j, s in enumerate(cumulative)]
        laws.append(cumulative)
    u = peak = 0
    sums = [0] * (len(edges) - 1)
    batch = 0
    for slot, uniform in enumerate(gen.random(n).tolist(), 1):
        step = 1
        for cut in laws[min(u, c)]:
            if uniform < cut:
                break
            step -= 1
        u += step
        peak = max(peak, u)
        while batch < len(sums) and slot > edges[batch + 1]:
            batch += 1
        if batch < len(sums) and slot > edges[batch]:
            sums[batch] += u
    return peak, sums


def nu_by_closed_forms(params: GeoParams, omega: float):
    """Hitting probabilities of the fully-busy walk in closed form from omega.

    The walk moves up by at most one level per step (ladder heights; Feller
    vol. II, ch. XII). With alpha its increment law and
    [m] = 1 + omega + ... + omega^(m-1):
        nu_up_i = omega^i,
        nu_{-1} = sum_m m alpha_{-m} omega^(m-1) / sum_m alpha_{-m} [m],
        1 - nu_{-1} = sum_m alpha_{-m} sum_{i<m} omega^i (1 - omega) [m-1-i]
                      / sum_m alpha_{-m} [m],
        1 - nu0 = alpha_1 (1 - nu_{-1}) + (1 - omega) sum_m alpha_{-m} [m].
    Every term is a product of probabilities and powers of omega, so nothing
    cancels, and 1 - nu0 never comes from a rounded nu0. No root finding, no
    solve. Returns (1 - nu0, nu_minus1, nu_up).
    """
    c = params.c
    alpha = dict(enumerate(increment_distribution(params)[c].tolist(), -c))

    def span(m):  # [m]
        return sum(omega**i for i in range(m))

    down = sum(alpha[-m] * span(m) for m in range(1, c + 1))
    nu_minus1 = sum(m * alpha[-m] * omega ** (m - 1) for m in range(1, c + 1)) / down
    miss = sum(alpha[-m] * sum(omega**i * (1.0 - omega) * span(m - 1 - i) for i in range(m))
               for m in range(1, c + 1)) / down
    return alpha[1] * miss + (1.0 - omega) * down, nu_minus1, tuple(omega**i for i in range(1, c))
