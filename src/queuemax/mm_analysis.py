"""Closed forms for the continuous-time queue.

Single-server maximum waits obey a Gumbel limit: with rho = lambda/mu,

    P{max wait <= y} ~ exp[-A n exp(-(mu - lambda) y)]

where A = lambda (1-rho)^2 for the wait in system and an extra factor rho for
the wait in queue, giving E(max) = [ln(n) + gamma + ln A] / (mu - lambda).
For two or more servers no analogous formulas are known and the simulator
fills the gap; stationary mean waits, however, follow from the Erlang C
formula for any number of servers.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, inf, isfinite, log
from typing import Literal

import numpy as np

from .errors import HeuristicRangeWarning, RangeError, StabilityError, UnsupportedError
from .stats import EULER_GAMMA

Kind = Literal["system", "queue"]


def _check_kind(kind: str) -> str:
    if kind not in ("system", "queue"):
        raise RangeError(f"kind must be 'system' or 'queue', got {kind!r}")
    return kind


@dataclass(frozen=True)
class MMParams:
    """Poisson-arrival, exponential-service queue parameters.

    lam is the arrival rate, mu the per-server service rate, c the server
    count. Stability requires lam < c*mu.
    """

    lam: float
    mu: float
    c: int

    def __post_init__(self):
        if int(self.c) != self.c or self.c < 1:
            raise UnsupportedError(f"server count must be a positive integer, got {self.c!r}")
        for name, value in (("lam", self.lam), ("mu", self.mu)):
            if not 0.0 < value < inf:
                raise RangeError(f"{name} must be positive and finite, got {value}")
        if self.lam >= self.c * self.mu:
            raise StabilityError(
                f"unstable parameters: lam={self.lam} >= c*mu={self.c * self.mu}")

    @property
    def rho_single(self) -> float:
        """lambda/mu, the load ratio used by the single-server formulas."""
        return self.lam / self.mu

    @property
    def utilization(self) -> float:
        """lambda/(c mu), the per-server traffic intensity."""
        return self.lam / (self.c * self.mu)


def validate_mm_params(lam: float, mu: float, c: int) -> MMParams:
    if int(c) != c:
        raise UnsupportedError(f"server count must be an integer, got {c!r}")
    return MMParams(float(lam), float(mu), int(c))


@dataclass(frozen=True)
class MM1Asymptotics:
    """Scaling constants of the single-server maximum-wait Gumbel limit."""

    scale: float          # 1 / (mu - lambda)
    rate_constant: float  # lambda (1-rho)^2, times rho for the queue wait

    def __post_init__(self):
        # both are positive for any stable queue, so only underflow gives a zero
        for name, value in (("scale", self.scale), ("rate constant", self.rate_constant)):
            if not value > 0.0:
                raise RangeError(f"{name} {value} is not positive: it underflowed")


def mm1_asymptotics(params: MMParams, kind: Kind) -> MM1Asymptotics:
    _check_kind(kind)
    if params.c != 1:
        raise UnsupportedError(
            "maximum-wait asymptotics are only known for a single server")
    rho = params.rho_single
    rate = params.lam * (1.0 - rho) ** 2
    if kind == "queue":
        rate *= rho
    return MM1Asymptotics(1.0 / (params.mu - params.lam), rate)


def max_wait_cdf_mm1(params: MMParams, kind: Kind, n: float, y) -> float:
    """P{max wait over [0, n] <= y} under the Gumbel approximation."""
    if n <= 0:
        raise RangeError(f"horizon must be positive, got {n}")
    asym = mm1_asymptotics(params, kind)
    if not isfinite(asym.rate_constant * n):
        raise RangeError(f"A*n = {asym.rate_constant} * {n} overflows")
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr < 0.0):
        raise RangeError("wait times are nonnegative")
    out = np.exp(-asym.rate_constant * n * np.exp(-y_arr / asym.scale))
    return float(out) if np.ndim(y) == 0 else out


def expected_max_wait_mm1(params: MMParams, kind: Kind, n: float) -> float:
    """E(max wait over [0, n]) = [ln(n) + gamma + ln A] / (mu - lambda).

    Warns (but still evaluates) below one expected exceedance, A * n < 1, where it
    can be negative."""
    if n <= 0:
        raise RangeError(f"horizon must be positive, got {n}")
    asym = mm1_asymptotics(params, kind)
    if asym.rate_constant * n < 1.0:
        warnings.warn(f"expected maximum wait evaluated at A*n={asym.rate_constant * n:.6g} < 1; "
                      "the asymptotic approximation is unreliable there",
                      HeuristicRangeWarning, stacklevel=2)
    return asym.scale * (log(n) + EULER_GAMMA + log(asym.rate_constant))


def mean_wait(params: MMParams, kind: Kind) -> float:
    """Stationary mean wait from the Erlang C formula, for any server count.

    With offered load a = lambda/mu and utilization rho = a/c, the Erlang B
    recursion B_k = a B_{k-1} / (k + a B_{k-1}) gives the probability of
    waiting C = B_c / (1 - rho (1 - B_c)) and the queue wait C / (c mu - lambda).
    The system wait exceeds the queue wait by the mean service time 1/mu.
    """
    _check_kind(kind)
    lam, mu, c = params.lam, params.mu, params.c
    offered = params.rho_single
    blocking, k = 1.0, 0
    while blocking and k < c:  # once blocking underflows to 0.0 it stays there
        k += 1
        blocking = offered * blocking / (k + offered * blocking)
    waiting = blocking / (1.0 - params.utilization * (1.0 - blocking))
    queue_wait = waiting / (c * mu - lam)
    if not isfinite(queue_wait):
        raise RangeError(f"mean queue wait {waiting} / (c*mu - lambda = {c * mu - lam}) overflows")
    return queue_wait + (1.0 / mu if kind == "system" else 0.0)
