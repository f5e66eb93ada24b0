"""Empirical-distribution helpers and the two-moment extreme-value fit.

Used to confront simulated maxima with analytic predictions: empirical CDFs,
sample summaries, Gumbel method-of-moments fits, and a descriptive
Kolmogorov-Smirnov distance (no p-values: parameters fitted from the same
data invalidate the standard tables).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, pi, sqrt
from typing import Callable

import numpy as np

from .errors import DegenerateSampleError, RangeError

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class ECDF:
    """Right-continuous empirical CDF on deduplicated, sorted support."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise RangeError("ECDF needs congruent nonempty 1-d arrays")
        if np.any(np.diff(values) <= 0.0):
            raise RangeError("support must be strictly increasing")
        if np.any(np.diff(probs) <= 0.0) or abs(probs[-1] - 1.0) > 1e-12:
            raise RangeError("probabilities must increase strictly to 1")
        values.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_samples(cls, samples) -> "ECDF":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise DegenerateSampleError("cannot build an ECDF from no samples")
        values, counts = np.unique(samples, return_counts=True)
        return cls(values, np.cumsum(counts) / samples.size)

    def evaluate(self, x):
        """P{sample <= x}; vectorized over x."""
        idx = np.searchsorted(self.values, np.asarray(x, dtype=np.float64), side="right")
        padded = np.concatenate(([0.0], self.probabilities))
        out = padded[idx]
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class GumbelParams:
    """Location/scale pair of a Gumbel law."""

    location: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise RangeError(f"scale must be positive, got {self.scale}")

    def mean(self) -> float:
        return self.location + EULER_GAMMA * self.scale

    def variance(self) -> float:
        return pi**2 * self.scale**2 / 6.0

    def cdf(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.location) / self.scale
        out = np.exp(-np.exp(-z))
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, u: float) -> float:
        if not 0.0 < u < 1.0:
            raise RangeError(f"quantile level must be in (0, 1), got {u}")
        return self.location - self.scale * log(-log(u))


def gumbel_fit_two_moment(samples) -> GumbelParams:
    """Fit a Gumbel law by matching sample mean and variance.

    scale = sqrt(6 * s^2) / pi, location = mean - gamma * scale, so the fitted
    law reproduces the first two sample moments exactly.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise DegenerateSampleError("two-moment fit needs at least 2 samples")
    variance = float(np.var(samples, ddof=1))
    if variance == 0.0:
        raise DegenerateSampleError("two-moment fit needs nonzero sample variance")
    scale = sqrt(6.0 * variance) / pi
    location = float(np.mean(samples)) - EULER_GAMMA * scale
    return GumbelParams(location, scale)


def ks_distance(ecdf: ECDF, cdf: Callable[[np.ndarray], np.ndarray], lattice: bool = False) -> float:
    """Sup-norm distance between an empirical CDF and a reference CDF.

    The reference maps an array of points to an array of CDF values; it is
    called once. Continuous references are compared at the jump points with
    both one-sided gaps. With lattice=True the comparison runs over the
    integer lattice spanning the support instead, which is the correct
    sup-norm when the reference is itself the CDF of an integer-valued law.
    The caller states which: an integer-valued sample of a continuous law
    (all-zero wait maxima, say) is still compared at its jump points.
    """
    values = ecdf.values
    if lattice:
        grid = np.arange(int(np.floor(values[0])) - 1, int(np.floor(values[-1])) + 1)
        return float(np.max(np.abs(ecdf.evaluate(grid) - cdf(grid))))
    ref = cdf(values)
    upper = ecdf.probabilities - ref
    lower = ref - np.concatenate(([0.0], ecdf.probabilities[:-1]))
    return float(max(np.max(upper), np.max(lower)))


@dataclass(frozen=True)
class SampleSummary:
    mean: float
    se: float
    ecdf: ECDF


def summarize(samples) -> SampleSummary:
    """Sample mean, its standard error (sample stdev / sqrt(n)), and the ECDF."""
    samples = np.asarray(samples, dtype=np.float64)
    ecdf = ECDF.from_samples(samples)  # raises DegenerateSampleError for an empty sample
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / sqrt(samples.size)) if samples.size > 1 else 0.0
    return SampleSummary(mean, se, ecdf)
