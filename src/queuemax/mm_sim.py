"""Customer-by-customer simulator for the continuous-time multi-server queue.

One run over [0, n]: a Poisson(lambda*n) customer count, arrival times as a
sorted uniform sample, inverse-CDF exponential service draws, and FIFO
assignment to the earliest-free server. Waits follow from the service start:
wait-in-queue = start - arrival, and wait-in-system is defined as
wait-in-queue + service so the conservation identity holds exactly per
customer.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from math import inf

import numpy as np

from .errors import RangeError
from .mm_analysis import MMParams
from .replication import (SimResult, check_campaign, make_sim_result, substream_generators,
                          substream_seed)

EXPONENTIAL_METHOD = "inverse CDF: -log1p(-U)/mu"
_INT64_MAX = np.iinfo(np.int64).max
POISSON_MEAN_MAX = float(_INT64_MAX - 10 * np.sqrt(_INT64_MAX))  # numpy's bound on a Poisson mean


@dataclass(frozen=True)
class MMSimConfig:
    """One replication campaign over the time interval [0, n]."""

    params: MMParams
    n: float
    reps: int
    seed: int

    def __post_init__(self):
        if not 0 < self.n < inf:
            raise RangeError(f"interval length must be positive and finite, got {self.n}")
        customers = self.params.lam * self.n  # the Poisson mean of one run's customer count
        if not customers <= POISSON_MEAN_MAX:
            raise RangeError(f"expected customers per run lambda*n = {customers:.6g} "
                             f"exceeds the Poisson limit {POISSON_MEAN_MAX:.6g}")
        check_campaign(self.seed, replications=self.reps)


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

    Each customer takes the server that frees earliest and starts at
    max(arrival, that server's free time). The free times are kept as a heap:
    a start depends only on the smallest free time, and the multiset of free
    times after it does not depend on which of several tied servers was
    taken, so no tie rule can change a start (the Kiefer-Wolfowitz workload
    recursion).
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape or arrivals.ndim != 1:
        raise RangeError("arrivals and services must be congruent 1-d arrays")
    if c < 1:
        raise RangeError(f"need at least one server, got {c}")
    free = [0.0] * min(c, arrivals.size)  # a heap: free[0] is the earliest; spare servers idle
    starts = []
    for arrival, service in zip(arrivals.tolist(), services.tolist()):
        start = arrival if arrival > free[0] else free[0]
        starts.append(start)
        heapreplace(free, start + service)
    return np.array(starts, dtype=np.float64)


def _draw_customers(params: MMParams, n: float, gen: np.random.Generator):
    count = int(gen.poisson(params.lam * n))
    arrivals = np.sort(gen.random(count) * n)
    services = -np.log1p(-gen.random(count)) / params.mu  # inverse-CDF exponentials
    return arrivals, services


def simulate_wait_detail(params: MMParams, n: float, seed: int) -> WaitDetail:
    """One run with full per-customer arrays; MMSimConfig checks n and seed."""
    MMSimConfig(params, n, 1, seed)
    return _wait_detail(params, n, np.random.Generator(np.random.PCG64(seed)))


def _wait_detail(params: MMParams, n: float, gen: np.random.Generator) -> WaitDetail:
    arrivals, services = _draw_customers(params, n, gen)
    starts = assign_service_starts(arrivals, services, params.c)
    wait_que = starts - arrivals
    wait_sys = wait_que + services
    return WaitDetail(arrivals, starts, services, wait_que, wait_sys)


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
    """Independent runs with deterministic substream seeding, aggregated.

    Each run reduces to one table row (max_sys, max_que, mean_sys, mean_que);
    an empty run keeps its row of zeros and a customer count of 0.
    """
    reps = config.reps
    seeds = [substream_seed(config.seed, i) for i in range(reps)]
    table = np.zeros((reps, 4))
    counts = np.zeros(reps, dtype=np.int64)
    for i, gen in enumerate(substream_generators(seeds)):
        detail = _wait_detail(config.params, config.n, gen)
        if detail.arrivals.size:
            table[i] = (detail.wait_sys.max(), detail.wait_que.max(),
                        detail.wait_sys.mean(), detail.wait_que.mean())
            counts[i] = detail.arrivals.size
    max_sys, max_que, mean_sys, mean_que = table.T
    if not np.all((max_sys >= max_que) & (max_que >= 0.0) & (mean_sys >= mean_que)
                  & (mean_que >= 0.0) & (max_sys >= mean_sys)):
        raise RangeError("system waits dominate queue waits and maxima their means; "
                         "check inputs")

    total = int(counts.sum())
    pooled_sys = float(np.dot(mean_sys, counts) / total) if total else 0.0
    pooled_que = float(np.dot(mean_que, counts) / total) if total else 0.0
    counts.flags.writeable = False
    return WaitSimResult(
        max_sys=make_sim_result(max_sys.copy(), seeds),
        max_que=make_sim_result(max_que.copy(), seeds),
        mean_sys=make_sim_result(mean_sys.copy(), seeds),
        mean_que=make_sim_result(mean_que.copy(), seeds),
        customers=counts,
        pooled_mean_sys=pooled_sys,
        pooled_mean_que=pooled_que,
    )
