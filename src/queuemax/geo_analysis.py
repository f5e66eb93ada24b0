"""Analytic pipeline for the discrete-time multi-server queue.

Computes, in order: the geometric tail decay rate omega (the root in (0, 1)
of the tail's cut balance, which is the fixed point w = (qw+p)(rw+s)^c with
its root at 1 divided out), the stationary distribution (boundary masses from
cut balances against the geometric tail), the level hitting/return
probabilities of the fully-busy random walk (via generating-function numerator
conditions at selected denominator roots, the descent one at omega itself),
and from those the clump rate

    beta = pi_c * (1 - nu0) / omega^(c-1)

which drives the running-maximum law P{M_n <= k} ~ exp(-beta * n * omega^k)
and its affine-in-ln(n) expected maximum. One analysis builds the increment
table once and computes omega once, by bisection to float resolution; the
table feeds omega, the stationary law and nu, and omega the other two.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, inf, log

import numpy as np

from .errors import DegenerateRootsError, HeuristicRangeWarning, RangeError
from .numerics import fixed_point_root, polynomial_roots, solve_linear_system
from .params import GeoParams, increment_distribution
from .stats import EULER_GAMMA

INTERIOR_MARGIN = 1e-9
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class NuRecord:
    """Hitting/return probabilities of the fully-busy increment walk.

    nu0: probability of returning to the starting level.
    nu_minus1: probability of ever reaching the level from one step above.
    nu_up: probabilities of reaching the level from 1..c-1 steps below
    (empty for a single server, where they are not separate unknowns).
    """

    nu0: float
    nu_minus1: float
    nu_up: tuple[float, ...]

    def __post_init__(self):
        # nu_minus1 equals 1 exactly for a single server (the walk cannot jump
        # over the level from above), so the upper bound is closed
        for name, value in [("nu0", self.nu0), ("nu_minus1", self.nu_minus1)] + [
                (f"nu{i + 1}", v) for i, v in enumerate(self.nu_up)]:
            if not 0.0 < value <= 1.0:
                raise DegenerateRootsError(f"{name}={value} is not in (0, 1]")


@dataclass(frozen=True)
class GeoAnalysis:
    """Full analytic description of one parameter set."""

    params: GeoParams
    omega: float
    pi_boundary: tuple[float, ...]
    pi_c: float
    nu: NuRecord
    beta: float
    """Clump rate pi_c (1 - nu0) / omega^(c-1) of the maximum law.

    1/(1 - nu0) is the expected number of visits to a high level per clump,
    and pi_k n / E(visits) with the geometric tail gives beta * n * omega^k.
    """

    def __post_init__(self):
        # omega and pi come certified from decay_rate_omega and _stationary_from_omega
        if not self.beta > 0.0:
            raise DegenerateRootsError(f"beta={self.beta} must be positive")

    def pi(self, j: int) -> float:
        """Stationary mass at queue length j (geometric beyond the boundary)."""
        if j < 0:
            raise RangeError(f"state must be nonnegative, got {j}")
        c = self.params.c
        if j < c:
            return self.pi_boundary[j]
        return self.omega ** (j - c) * self.pi_c

    @property
    def mean_queue_length(self) -> float:
        """Stationary mean queue length, from the law already computed here."""
        return _stationary_mean(self.params.c, self.omega, self.pi_boundary, self.pi_c)


def decay_rate_omega(params: GeoParams) -> float:
    """Unique root in (0, 1) of the geometric tail's cut balance.

    With X the fully-busy increment (support -c..1), the flows up and down
    across a cut between tail levels balance when
    P(X = +1) = sum_{k=1..c} P(X <= -k) w^k: the fixed point
    w = (qw+p)(rw+s)^c with its root at 1 divided out, but with coefficients
    that are sums of probabilities, so none cancels. Right side minus left
    increases from -p*s^c < 0 at 0 to c*r - p > 0 at 1, so bisection on
    [0, 1] keeps its bracket and runs to float resolution. Only within about
    1e-15 of load 1 can rounding flip the sign at 1 (BracketError) or put
    the root on 1 (DegenerateRootsError).
    """
    return _omega_from_table(increment_distribution(params))


def _omega_from_table(table: np.ndarray) -> float:
    """decay_rate_omega with the increment table already at hand."""
    probs = table[-1]  # the fully-busy law
    up, tails = float(probs[-1]), np.cumsum(probs[:-2]).tolist()  # P(X <= -k), k = c..1

    def balance(w: float) -> float:
        acc = 0.0
        for tail in tails:  # Horner, from the highest power
            acc = (acc + tail) * w
        return acc - up

    omega = fixed_point_root(balance, 0.0, 1.0)
    if not 0.0 < omega < 1.0:
        raise DegenerateRootsError(f"omega={omega} is not in (0, 1)")
    return omega


def _stationary_from_omega(params: GeoParams, omega: float, table: np.ndarray | None = None):
    """Boundary masses and pi_c from the cut balances below levels c..1.

    The queue rises at most one level per slot, so only level k-1 sends mass up
    across the cut below level k, and the flows balance (Kelly 1979, Lemma 1.4):
    pi_{k-1} P_{k-1}(X = +1) = sum_{j=k..k+c-1} pi_j P_{min(j,c)}(X <= k-1-j).
    With the tail pi_j = omega^(j-c) pi_c every term is a product of probabilities,
    so nothing cancels. Raises DegenerateRootsError for a boundary mass outside
    (0, 1] or a pi_c outside (0, 1); in light traffic pi_0 = 1 - O(p) rounds to 1.
    Builds the increment table unless one is passed."""
    c = params.c
    table = increment_distribution(params) if table is None else table
    up = table[:c, -1].tolist()  # P_b(X = +1) = p*s^b > 0
    below = np.cumsum(table, axis=1).tolist()  # below[b][c + m] = P_b(X <= m)
    ratio = [0.0] * c + [omega**i for i in range(c)]  # pi_j / pi_c, j < 2c
    for k in range(c, 0, -1):
        down = sum(ratio[j] * below[min(j, c)][c + k - 1 - j] for j in range(k, k + c))
        ratio[k - 1] = down / up[k - 1]
    pi_c = 1.0 / (1.0 / (1.0 - omega) + sum(ratio[:c]))
    boundary = tuple(mass * pi_c for mass in ratio[:c])
    if any(not 0.0 < b <= 1.0 for b in boundary) or not 0.0 < pi_c < 1.0:
        raise DegenerateRootsError(
            f"stationary masses {boundary} not all in (0, 1] or {pi_c} not in (0, 1)")
    return boundary, pi_c


def _divide_out_root_at_one(coeffs: np.ndarray) -> np.ndarray:
    """Quotient of a polynomial (ascending coeffs) by its (1 - z) factor.

    With D(z) = (1 - z) C(z), the quotient coefficients are the partial sums
    of D's. The remainder must vanish, which is asserted against rounding.
    """
    quotient = np.cumsum(coeffs[:-1])
    scale = float(np.max(np.abs(coeffs)))
    if abs(quotient[-1] + coeffs[-1]) > 1e-12 * max(scale, 1e-30):
        raise DegenerateRootsError("polynomial does not vanish at z = 1")
    return quotient


def hitting_probabilities(params: GeoParams) -> NuRecord:
    """Solve the linear system defining nu0, nu_minus1 and nu_1..nu_{c-1}.

    The ascent generating function F(z) = sum nu_j z^j and descent analogue
    G(z) are rational with known denominators. Analyticity forces the
    numerator N_F to vanish at z = 1 and at each denominator root inside the
    unit disk (exactly c-1 of them), and N_G to vanish at the smallest-modulus
    root of its denominator z (A(1/z) - 1). That root is omega, because
    A(1/omega) = 1 is the cut balance, so it is not searched for again. The
    c+1 equations in c+1 unknowns are solved over the complex field with
    imaginary parts required to vanish.
    """
    table = increment_distribution(params)
    return _nu_from_omega(params, _omega_from_table(table), table)


def _nu_from_omega(params: GeoParams, omega: float, table: np.ndarray) -> NuRecord:
    """hitting_probabilities with the increment table and the descent root omega at hand."""
    c = params.c
    law = table[c]  # alpha[-c..1] of the fully-busy walk
    alpha = dict(enumerate(law.tolist(), -c))
    a_up, a_zero = alpha[1], alpha[0]

    # ascent denominator z^c (A(z) - 1), A the increment generating function:
    # sum_m alpha_{-m} z^{c-m} - (1-alpha_0) z^c + alpha_1 z^{c+1}; a single
    # server has no interior ascent roots to find
    df = law.copy()
    df[c] -= 1.0
    ascent_roots = polynomial_roots(_divide_out_root_at_one(df)) if c > 1 else []
    interior = [z for z in ascent_roots if abs(z) < 1.0 - INTERIOR_MARGIN]
    if len(interior) != c - 1:
        raise DegenerateRootsError(
            f"expected {c - 1} ascent-denominator roots inside the unit disk, "
            f"found {len(interior)} among {ascent_roots}")

    # unknown vector [nu0, nu_minus1, nu_1, ..., nu_{c-1}]; the solve makes the rows complex
    def ascent_condition(z):
        zc = z**c
        row = [zc, -a_up * zc] + [sum(alpha[-m] * z ** (c - m + i) for m in range(i + 1, c + 1))
                                  for i in range(1, c)]
        return row, a_zero * zc + a_up * z ** (c + 1)

    def descent_condition(z):
        row = [0.0, a_up * z] + [-sum(alpha[-m] * z ** (m + 1 - i) for m in range(i + 1, c + 1))
                                 for i in range(1, c)]
        return row, sum(alpha[-m] * z ** (m + 1) for m in range(1, c + 1))

    rows, rhs = zip(*[ascent_condition(z) for z in [1.0, *interior]], descent_condition(omega))
    solution = solve_linear_system(rows, rhs)
    if float(np.max(np.abs(solution.imag))) > IMAG_TOL:
        raise DegenerateRootsError(
            f"hitting probabilities came out complex: {solution}")

    # certain hits (single-server descent) may overshoot 1 by rounding
    real = [1.0 if 1.0 < v <= 1.0 + 1e-9 else v for v in solution.real.tolist()]
    return NuRecord(real[0], real[1], tuple(real[2:]))


def analyze_geo(params: GeoParams) -> GeoAnalysis:
    """Run the full pipeline once, on one increment table, and package the results."""
    table = increment_distribution(params)
    omega = _omega_from_table(table)
    boundary, pi_c = _stationary_from_omega(params, omega, table)
    nu = _nu_from_omega(params, omega, table)
    beta = pi_c * (1.0 - nu.nu0) / omega ** (params.c - 1)
    return GeoAnalysis(params, omega, boundary, pi_c, nu, beta)


@dataclass(frozen=True)
class MaxLengthLaw:
    """Running-maximum law over an n-step horizon.

    P{M_n <= k} = exp(-beta n omega^k); the expected maximum is
    slope * ln(n) + intercept with slope = 1/ln(1/omega) and
    intercept = (gamma + ln beta)/ln(1/omega) + 1/2. Periodic fluctuation
    corrections to the moments are deliberately omitted.
    """

    omega: float
    beta: float
    n: float
    servers: int

    @property
    def slope(self) -> float:
        return 1.0 / log(1.0 / self.omega)

    @property
    def intercept(self) -> float:
        return (EULER_GAMMA + log(self.beta)) / log(1.0 / self.omega) + 0.5

    def cdf(self, k):
        """P{M_n <= k}: a float for an int k, an array for an int array, each level in Python
        floats so the two agree bit for bit. Warns once (but still evaluates) below the boundary."""
        array = isinstance(k, np.ndarray)
        levels = k.ravel().tolist() if array else [k]
        if levels and min(levels) < self.servers:
            warnings.warn(
                f"maximum-law CDF evaluated at k={min(levels)} below the {self.servers}-server "
                "boundary; the asymptotic approximation is unreliable there",
                HeuristicRangeWarning, stacklevel=2)
        values = [exp(-self.beta * self.n * self.omega**level) for level in levels]
        return np.array(values).reshape(k.shape) if array else values[0]

    def mean(self) -> float:
        """Warns (but still evaluates) below one expected clump, where it can be negative."""
        if self.n < 2:
            raise RangeError(f"expected-maximum expansion needs n >= 2, got {self.n:g}")
        if self.beta * self.n < 1.0:
            warnings.warn(f"expected maximum evaluated at beta*n={self.beta * self.n:.6g} < 1; "
                          "the asymptotic approximation is unreliable there",
                          HeuristicRangeWarning, stacklevel=2)
        return self.slope * log(self.n) + self.intercept


def max_length_law(analysis: GeoAnalysis, n: float) -> MaxLengthLaw:
    if not 1 <= n < inf:  # false for nan too
        raise RangeError(f"horizon must be finite and at least 1 step, got {n}")
    return MaxLengthLaw(analysis.omega, analysis.beta, float(n), analysis.params.c)


def expected_max_length(analysis: GeoAnalysis, n: float) -> float:
    """Asymptotic E(M_n) = slope * ln(n) + intercept."""
    return max_length_law(analysis, n).mean()


def mean_queue_length(params: GeoParams) -> float:
    """Stationary mean queue length sum_j j pi_j.

    Solves for omega and the stationary law; `GeoAnalysis.mean_queue_length`
    gives the same value from an analysis already at hand.
    """
    table = increment_distribution(params)
    omega = _omega_from_table(table)
    return _stationary_mean(params.c, omega, *_stationary_from_omega(params, omega, table))


def _stationary_mean(c: int, omega: float, boundary, pi_c: float) -> float:
    """Boundary terms summed directly; the geometric tail contributes
    pi_c (c - (c-1) omega)/(1 - omega)^2 in closed form."""
    tail = (c - (c - 1) * omega) / (1.0 - omega) ** 2 * pi_c
    return sum(j * mass for j, mass in enumerate(boundary)) + tail
