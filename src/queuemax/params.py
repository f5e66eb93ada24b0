"""Discrete-queue parameter records and the one-step increment table, plus `normalise`,
the field rule GeoParams and MMParams share.

The increment table (one law per busy count k: arrival Bernoulli(p)
convolved with Binomial(k, r) departures) is the single source of truth for
the transition structure; both the analytic pipeline and the simulator read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import RangeError, StabilityError, UnsupportedError

MAX_SERVERS = 3


def normalise(record, *rates: str) -> None:
    """Store a frozen record's rates as floats and its server count c as an int.

    UnsupportedError unless c is an integral number within the float range:
    3, np.int64(3) and 3.0 pass; 2.5, nan, inf, "3" and 10**400 do not."""
    try:
        integral = record.c == int(record.c)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise UnsupportedError(f"server count must be an integer, got {record.c!r}")
    try:
        float(record.c)  # the stability checks multiply c by a float rate
    except OverflowError:
        bits = record.c.bit_length()
        raise UnsupportedError(f"server count of {bits} bits overflows a float") from None
    for name in rates:
        object.__setattr__(record, name, float(getattr(record, name)))
    object.__setattr__(record, "c", int(record.c))


@dataclass(frozen=True)
class GeoParams:
    """Bernoulli-arrival, geometric-service queue parameters, checked and normalised.

    p is the arrival probability per time slot, r the per-server departure
    probability per slot, both stored as floats; c is the number of servers,
    stored as an int in 1..MAX_SERVERS. Stability requires p < c*r.
    """

    p: float
    r: float
    c: int

    def __post_init__(self):
        normalise(self, "p", "r")
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
    """GeoParams(p, r, c), which checks and normalises its own fields."""
    return GeoParams(p, r, c)


def increment_distribution(params: GeoParams) -> np.ndarray:
    """Every one-step increment law at once: a read-only (c+1) x (c+2) table.

    Row k is the law with k busy servers (arrival Bernoulli(p), departures
    Binomial(k, r)); column j holds the step j - c, so the columns cover
    -c..+1 and steps below -k hold 0. Row 0 covers the empty queue, where an
    arrival is not yet eligible for service and the step is +1 with
    probability p, else 0.
    """
    c, p, q = params.c, params.p, params.q
    # numpy scalar powers (float ** np.int64), taken once; Python-int exponents or
    # np.power over arrays can move a last bit, and with it the simulator's cuts
    r_pow = [float(params.r ** e) for e in np.arange(c + 1)]
    s_pow = [float(params.s ** e) for e in np.arange(c + 1)]
    rows = [[0.0] * (c + 2) for _ in range(c + 1)]
    for k, row in enumerate(rows):
        for d in range(k + 1):  # d departures: step 1 - d after an arrival, -d without
            row[c + 1 - d] += p * comb(k, d) * r_pow[d] * s_pow[k - d]
            row[c - d] += q * comb(k, d) * r_pow[d] * s_pow[k - d]
    table = np.array(rows)
    table.flags.writeable = False
    return table
