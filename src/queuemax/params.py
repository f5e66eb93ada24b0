"""Discrete-queue parameter records and the one-step increment law.

The increment law (arrival Bernoulli(p) convolved with Binomial(busy, r)
departures) is the single source of truth for the transition structure; both
the analytic pipeline and the simulator build on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import RangeError, StabilityError, UnsupportedError

MAX_SERVERS = 3
PMF_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GeoParams:
    """Bernoulli-arrival, geometric-service queue parameters.

    p is the arrival probability per time slot, r the per-server departure
    probability per slot, c the number of servers. Stability requires p < c*r.
    """

    p: float
    r: float
    c: int

    def __post_init__(self):
        if int(self.c) != self.c:
            raise UnsupportedError(f"server count must be an integer, got {self.c!r}")
        if not 1 <= self.c <= MAX_SERVERS:
            raise UnsupportedError(
                f"server count must be in 1..{MAX_SERVERS}, got {self.c}")
        for name, value in (("p", self.p), ("r", self.r)):
            if not 0.0 < value < 1.0:
                raise RangeError(f"{name} must lie strictly inside (0, 1), got {value}")
        if self.p >= self.c * self.r:
            raise StabilityError(
                f"unstable parameters: p={self.p} >= c*r={self.c * self.r}")

    @property
    def q(self) -> float:
        """Probability of no arrival in a slot."""
        return 1.0 - self.p

    @property
    def s(self) -> float:
        """Probability a busy server does not finish in a slot."""
        return 1.0 - self.r


def validate_geo_params(p: float, r: float, c: int) -> GeoParams:
    """Validate raw numeric inputs and return the parameter record.

    Raises RangeError for probabilities outside (0, 1), StabilityError when
    p >= c*r, UnsupportedError for a server count outside 1..3.
    """
    if int(c) != c:
        raise UnsupportedError(f"server count must be an integer, got {c!r}")
    return GeoParams(float(p), float(r), int(c))


@dataclass(frozen=True)
class IncrementPMF:
    """Law of the one-step queue-length change with a given number of busy servers.

    Support is the integer range -busy..+1; probabilities are the exact
    polynomial expressions in p, q, r, s.
    """

    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if support.shape != probs.shape or support.ndim != 1:
            raise RangeError("support and probabilities must be 1-d and congruent")
        if support[-1] != 1 or np.any(np.diff(support) != 1):
            raise RangeError("support must be the contiguous range -busy..+1")
        if np.any(probs < 0.0):
            raise RangeError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > PMF_SUM_TOL:
            raise RangeError(f"probabilities sum to {probs.sum()!r}, not 1")
        support.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probs)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probabilities))

    def prob(self, step: int) -> float:
        """Probability of a given increment (0 outside the support)."""
        if step < int(self.support[0]) or step > 1:
            return 0.0
        return float(self.probabilities[step - int(self.support[0])])


def increment_distribution(params: GeoParams, busy: int) -> IncrementPMF:
    """Increment law for a state with `busy` servers active (0 <= busy <= c).

    busy = 0 covers the empty queue, where an arrival is not yet eligible for
    service and the step is +1 with probability p, else 0.
    """
    if int(busy) != busy:
        raise RangeError(f"busy must be an integer, got {busy!r}")
    busy = int(busy)
    if not 0 <= busy <= params.c:
        raise RangeError(f"busy must be in 0..{params.c}, got {busy}")
    p, q, r, s = params.p, params.q, params.r, params.s
    support = np.arange(-busy, 2)
    probs = np.zeros(busy + 2)
    for i, k in enumerate(support):
        acc = 0.0
        d = 1 - k  # departures needed if an arrival occurred
        if 0 <= d <= busy:
            acc += p * comb(busy, d) * r**d * s**(busy - d)
        d = -k  # departures needed if no arrival occurred
        if 0 <= d <= busy:
            acc += q * comb(busy, d) * r**d * s**(busy - d)
        probs[i] = acc
    return IncrementPMF(support, probs)

