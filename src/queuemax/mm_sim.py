"""Customer-by-customer simulator for the continuous-time multi-server queue.

One run over [0, n]: a Poisson(lambda*n) customer count, arrival times as a
sorted uniform sample, inverse-CDF exponential service draws, and FIFO
assignment to the earliest-free server. Waits follow from the service start:
wait-in-queue = start - arrival, and wait-in-system is defined as
wait-in-queue + service so the conservation identity holds exactly per
customer.

Service starts, by server count; both kernels give the bits of the
per-customer loop start_i = max(a_i, f_{i-1}), f_i = start_i + s_i:
- c >= 2 keeps the c free times in a heap, one customer at a time.
- c = 1 folds whole busy periods in numpy (the Lindley 1952 recursion). A
  period that begins at j (a_j > f_{j-1}, or j = 0) ends customer i of it at
  f_i = ((b_j + s_j) + s_{j+1}) + ... + s_i, b_j = start_j: a left fold,
  which `np.add.accumulate` down a column performs with the same IEEE
  additions in the same order. `_fold_starts` guesses the period heads from
  the (max,+) closed form f_i = S_i + max(0, max_{j<=i} (a_j - S_{j-1})),
  S = cumsum(s), folds every marked period exactly (`_fold_ends`), re-marks
  the heads from those exact ends, and repeats until the marks are a fixed
  point. A fixed point satisfies the loop's recursion at every customer, so
  it is the loop's output. If a round's marks match the loop's heads before
  index k, its folded ends match the loop's before k, so the new marks
  match up to k inclusive: the rounds end after at most n. No campaign at
  loads 0.02, 0.67, 0.98 or 0.998 (500-2000 replications of 20000 time
  units each) needed a second round. Each round costs O(log longest
  period) numpy calls, as periods are binned by length into blocks at most
  twice their size, and needs no memory beyond a few arrays of the run's
  length.
  Fold / heap time per replication over n = 20000 (lambda = rho/2, mu = 1/2;
  medians of 5 runs, 2-vCPU Xeon): 2.3 at rho = 0.02 (about 200 customers,
  35 us more), 0.33 at 0.67, 0.27 at 0.9, 0.28 at 0.98 and 0.24 at 0.998.
  Single runs of 0.6, 1.5 and 3 million customers (rho = 0.9, 0.98, 0.998)
  ran 2.9x, 4.9x and 4.3x faster than the heap.
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
    max(arrival, that server's free time). One server folds whole busy
    periods in numpy (`_fold_starts`); more servers keep their free times in
    a heap (`_heap_starts`). Both give the per-customer loop's bits.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape or arrivals.ndim != 1:
        raise RangeError("arrivals and services must be congruent 1-d arrays")
    if c < 1:
        raise RangeError(f"need at least one server, got {c}")
    if c > 1:
        return _heap_starts(arrivals, services, c)
    return _fold_starts(arrivals, services)


def _heap_starts(arrivals: np.ndarray, services: np.ndarray, c: int) -> np.ndarray:
    """Customer by customer, with the server free times kept as a heap.

    A start depends only on the smallest free time, and the multiset of free
    times after it does not depend on which of several tied servers was
    taken, so no tie rule can change a start (the Kiefer-Wolfowitz workload
    recursion).
    """
    free = [0.0] * min(c, arrivals.size)  # a heap: free[0] is the earliest; spare servers idle
    starts = []
    for arrival, service in zip(arrivals.tolist(), services.tolist()):
        start = arrival if arrival > free[0] else free[0]
        starts.append(start)
        heapreplace(free, start + service)
    return np.array(starts, dtype=np.float64)


@np.errstate(over="ignore", invalid="ignore")  # as in the loop, inf and nan pass silently
def _fold_starts(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """One server: mark busy-period heads where a_i exceeds the closed-form guess of f_{i-1}.

    The guess is exact in real arithmetic but rounds differently from the
    loop, so `_settle_starts` checks it.
    """
    if not arrivals.size:
        return np.empty(0)
    total = np.cumsum(services)
    guess = arrivals - (total - services)
    np.maximum.accumulate(guess, out=guess)
    np.maximum(guess, 0.0, out=guess)
    guess += total
    heads = np.empty(arrivals.size, dtype=np.bool_)
    np.greater(arrivals[1:], guess[:-1], out=heads[1:])
    return _settle_starts(arrivals, services, heads)


@np.errstate(over="ignore", invalid="ignore")
def _settle_starts(arrivals: np.ndarray, services: np.ndarray, heads) -> np.ndarray:
    """Fold the busy periods that `heads` marks, re-mark them from the exact ends, repeat.

    heads[i] for i >= 1 claims that customer i finds the server idle; heads[0]
    is ignored. Any marks converge to the loop's starts (module docstring).
    """
    size = arrivals.size
    ends = np.zeros(size + 2)  # ends[i + 1] = f_i, ends[0] = f_{-1} = 0.0, ends[-1] takes padding
    prev = ends[:size]
    heads = np.array(heads, dtype=np.bool_)
    heads[0] = True
    while True:
        _fold_ends(arrivals, services, heads, ends)
        idle = arrivals > prev
        if np.array_equal(idle[1:], heads[1:]):
            return np.where(idle, arrivals, prev)
        heads = idle
        heads[0] = True


def _fold_ends(arrivals, services, heads, ends) -> None:
    """ends[i + 1] = f_i, each marked busy period folded down one column of a block.

    A period that begins at j ends customer i at ((b_j + s_j) + s_{j+1}) + ... + s_i,
    with b_j = a_j, or max(a_0, 0.0) at j = 0. Periods are binned by length,
    2^(e-1) <= length < 2^e, into blocks with one column per period and as
    many rows as the longest, so padding stays below half a block. A padding
    row reads and writes the next period's head (or the padding slot after
    the last customer): it adds only below the period's last end, and the
    heads are rewritten last.
    """
    size = arrivals.size
    first = np.flatnonzero(heads)
    lengths = np.diff(first, append=size)
    lead = arrivals[first]
    lead[0] = arrivals[0] if arrivals[0] > 0.0 else 0.0
    values = np.zeros(size + 2)  # at the offsets of ends
    values[1:-1] = services
    first += 1
    values[first] = lead + services[first - 1]
    exps = np.frexp(lengths)[1].astype(np.int8)
    order = exps.argsort(kind="stable")  # a radix sort at int8
    first, lengths = first[order], lengths[order]
    stop = first + lengths  # the next period's head, or the padding slot
    bounds = np.cumsum(np.bincount(exps)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            at = np.arange(lengths[lo:hi].max())[:, None] + first[lo:hi]
            np.minimum(at, stop[lo:hi], out=at)  # padding rows all point at the stop
            block = values.take(at)
            np.add.accumulate(block, axis=0, out=block)
            ends[at] = block
    ends[first] = values[first]  # mends the heads that padding wrote over


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
    seeds = substream_seed(config.seed, np.arange(reps))
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
