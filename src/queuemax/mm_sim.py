"""Customer-by-customer simulator for the continuous-time multi-server queue.

One run over [0, n]: a Poisson(lambda*n) customer count, arrival times as a
sorted uniform sample, inverse-CDF exponential service draws, and FIFO
assignment to the earliest-free server (lowest index on ties). Waits follow
from the service start: wait-in-queue = start - arrival, and wait-in-system is
defined as wait-in-queue + service so the conservation identity holds exactly
per customer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .mm_analysis import MMParams
from .replication import SimResult, make_sim_result, substream_seed

EXPONENTIAL_METHOD = "inverse CDF: -log1p(-U)/mu"


@dataclass(frozen=True)
class MMSimConfig:
    """One replication campaign over the time interval [0, n]."""

    params: MMParams
    n: float
    reps: int
    seed: int

    def __post_init__(self):
        if not self.n > 0:
            raise RangeError(f"interval length must be positive, got {self.n}")
        if self.reps < 1:
            raise RangeError(f"need at least 1 replication, got {self.reps}")


@dataclass(frozen=True)
class WaitMaxima:
    """Maxima and means of both wait definitions over one run."""

    max_sys: float
    max_que: float
    mean_sys: float
    mean_que: float
    customers: int

    def __post_init__(self):
        if not (self.max_sys >= self.max_que >= 0.0
                and self.mean_sys >= self.mean_que >= 0.0):
            raise RangeError("system waits dominate queue waits; check inputs")
        if self.customers >= 1 and self.max_sys < self.mean_sys:
            raise RangeError("a maximum cannot be below its mean")


@dataclass(frozen=True)
class WaitDetail:
    """Per-customer records of one run, in arrival order."""

    arrivals: np.ndarray
    starts: np.ndarray
    services: np.ndarray
    wait_que: np.ndarray
    wait_sys: np.ndarray


def assign_service_starts(arrivals, services, c: int) -> np.ndarray:
    """FIFO service-start times given sorted arrivals and service durations.

    Each customer takes the server that frees earliest (lowest index wins
    ties) and starts at max(arrival, that server's free time).
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape or arrivals.ndim != 1:
        raise RangeError("arrivals and services must be congruent 1-d arrays")
    if c < 1:
        raise RangeError(f"need at least one server, got {c}")
    free = [0.0] * c
    starts = np.empty(arrivals.size)
    for i, (arrival, service) in enumerate(zip(arrivals.tolist(), services.tolist())):
        j = min(range(c), key=free.__getitem__)
        start = arrival if arrival > free[j] else free[j]
        starts[i] = start
        free[j] = start + service
    return starts


def _draw_customers(params: MMParams, n: float, gen: np.random.Generator):
    count = int(gen.poisson(params.lam * n))
    arrivals = np.sort(gen.random(count) * n)
    services = -np.log1p(-gen.random(count)) / params.mu  # inverse-CDF exponentials
    return arrivals, services


def simulate_wait_detail(params: MMParams, n: float, seed: int) -> WaitDetail:
    """One run with full per-customer arrays."""
    if not n > 0:
        raise RangeError(f"interval length must be positive, got {n}")
    gen = np.random.Generator(np.random.PCG64(seed))
    arrivals, services = _draw_customers(params, n, gen)
    starts = assign_service_starts(arrivals, services, params.c)
    wait_que = starts - arrivals
    wait_sys = wait_que + services
    return WaitDetail(arrivals, starts, services, wait_que, wait_sys)


def simulate_wait_maxima(params: MMParams, n: float, seed: int) -> WaitMaxima:
    """Maxima and means of both waits over one run (all zero for an empty run)."""
    detail = simulate_wait_detail(params, n, seed)
    if detail.arrivals.size == 0:
        return WaitMaxima(0.0, 0.0, 0.0, 0.0, 0)
    return WaitMaxima(
        max_sys=float(detail.wait_sys.max()),
        max_que=float(detail.wait_que.max()),
        mean_sys=float(detail.wait_sys.mean()),
        mean_que=float(detail.wait_que.mean()),
        customers=detail.arrivals.size,
    )


@dataclass(frozen=True)
class WaitSimResult:
    """Replicated wait statistics: one SimResult per tracked quantity.

    Pooled means weight each replication by its customer count, i.e. they are
    plain per-customer averages across the whole campaign.
    """

    max_sys: SimResult
    max_que: SimResult
    mean_sys: SimResult
    mean_que: SimResult
    customers: np.ndarray
    pooled_mean_sys: float
    pooled_mean_que: float


def replicate_wait_maxima(config: MMSimConfig) -> WaitSimResult:
    """Independent runs with deterministic substream seeding, aggregated."""
    reps = config.reps
    seeds = [substream_seed(config.seed, i) for i in range(reps)]
    table = np.zeros((reps, 4))
    counts = np.zeros(reps, dtype=np.int64)
    for i, seed in enumerate(seeds):
        maxima = simulate_wait_maxima(config.params, config.n, seed)
        table[i] = (maxima.max_sys, maxima.max_que, maxima.mean_sys, maxima.mean_que)
        counts[i] = maxima.customers

    total = int(counts.sum())
    pooled_sys = float(np.dot(table[:, 2], counts) / total) if total else 0.0
    pooled_que = float(np.dot(table[:, 3], counts) / total) if total else 0.0
    counts.flags.writeable = False
    return WaitSimResult(
        max_sys=make_sim_result(table[:, 0].copy(), seeds),
        max_que=make_sim_result(table[:, 1].copy(), seeds),
        mean_sys=make_sim_result(table[:, 2].copy(), seeds),
        mean_que=make_sim_result(table[:, 3].copy(), seeds),
        customers=counts,
        pooled_mean_sys=pooled_sys,
        pooled_mean_que=pooled_que,
    )
