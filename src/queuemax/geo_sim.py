"""Simulator for the discrete-time multi-server queue.

Each slot takes one uniform U from the replication's own PCG64 stream. With
k = min(u, c) busy servers, the queue length moves by the inverse CDF of the
increment law F_k = `increment_distribution(params, k)` at U:

    u <- u + inc[k],  inc[k] = F_k^{-1}(U)

Each law is read from +1 downward: the step is +1 while U lies below
P(+1), 0 while it lies below P(+1) + P(0), and so on. So every slot has its
exact conditional law. Reading all laws from the top also couples them: one
more busy server lowers the step by 0 or 1, so inc[k] never increases with
k, and at c = 1 the arrival a = inc[0] keeps 0 <= a - inc[1] <= 1. Rounding
can push a partial sum of F_k an ulp past one of F_{k-1}; each is clipped
into the interval the coupling allows, which moves it by at most a few ulps.

One decoder, `_draw_buckets`, reads that stream for every path. The partial
sums of all c+1 laws, pooled and sorted into cuts t_1 < ... < t_m, split
[0, 1) into buckets. U falls in bucket b = sum_i [U >= t_i], and one
(m+1) x (c+1) int8 table, `_decode_table`, maps b to inc[0..c]. Over one
block of slots at a time, a chunk of DRAW_CHUNK generators each fill one
reused row of uniforms, and the chunk is bucketed at once. Scratch is sized
to the block and the chunk, never to the horizon. PCG64 hands out its
doubles in the same order however the draws are split, so BLOCK and the
chunks leave every sample unchanged: a run is fixed by its seeds alone.

- `_run_single` steps one trajectory slot by slot in Python over the
  buckets pre-scaled by c+1, u += flat[b + min(u, c)] with flat the
  row-major table, and takes the maximum and the batch sums of
  `time_average_queue_length` from each block's path; at width one a Python
  loop beats any per-slot numpy call by an order of magnitude.
- `_run_many` vectorizes the replications of `replicate_max_length`. At c = 1
  it needs no time loop: the recursion reads u_t = max(u_{t-1} + a_t - d_t,
  a_t) (Lindley 1952), so with S = cumsum(inc[1]) over a block,
  u = S + max(u_0, maximum.accumulate(a - S)); u is carried across blocks.
  At c >= 2 it keeps one slot loop over all replications, with the
  pre-scaled buckets transposed time-major, so each slot is a single gather
  from the flat table at b + min(u, c).

All paths give identical maxima for a seed; `tests/test_geo_stream.py` pins
them to recorded samples and to a plain per-slot reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import ConvergenceError, RangeError
from .params import GeoParams, increment_distribution
from .replication import (SimResult, check_master_seed, make_sim_result, substream_generators,
                          substream_seed)

BLOCK = 512        # slots per generator call (performance only: the stream does not depend on it)
REP_CHUNK = 4096   # replications per _run_many call, bounding its scratch (performance only)
DRAW_CHUNK = 64    # replications drawn and bucketed together (performance only)
SLOT_CHUNK = 64    # slots of the c >= 2 gather widened to intp together (performance only)
STATE_CAP = 2**30  # tripwire: maxima are O(ln n), so this can only mean a bug
INCREMENT_METHOD = "one uniform per slot, inverse CDF from +1 down"  # recorded in manifests


def _check_state(peak: int) -> None:
    """Raise when a trajectory reaches STATE_CAP; also keeps int32 paths far from overflow."""
    if peak >= STATE_CAP:
        raise ConvergenceError(
            f"simulated queue length {peak} reached the state cap {STATE_CAP}")


@dataclass(frozen=True)
class GeoSimConfig:
    """One replication campaign: parameters, horizon, count, master seed."""

    params: GeoParams
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise RangeError(f"horizon must be at least 1 step, got {self.n}")
        if self.reps < 1:
            raise RangeError(f"need at least 1 replication, got {self.reps}")
        check_master_seed(self.seed)


def _decode_table(params: GeoParams):
    """The sorted cuts t_1 < ... < t_m and the int8 table of inc[0..c] per bucket.

    Law k contributes its partial sums from +1 down, all but the last (which
    is 1 up to rounding), each clipped into [t'_{j-1}, t'_j] of law k-1's
    sums t' so that inc[k-1] - 1 <= inc[k] <= inc[k-1] holds exactly. In
    bucket b, inc[k] is 1 minus the number of law k's sums <= t_b.
    """
    laws = []
    for k in range(params.c + 1):
        sums, total = [], 0.0
        for prob in increment_distribution(params, k).probabilities[:0:-1].tolist():
            total += prob
            sums.append(total)
        if laws:
            lower, upper = [-inf, *laws[-1]], [*laws[-1], inf]
            sums = [min(max(s, low), high) for s, low, high in zip(sums, lower, upper)]
        laws.append(sums)
    cuts = sorted({s for sums in laws for s in sums})
    table = [[1 - sum(s <= t for s in sums) for sums in laws] for t in [-1.0, *cuts]]
    return np.array(cuts), np.array(table, dtype=np.int8)  # m <= 10 at c <= 3: int8 is ample


def _draw_buckets(gens, n: int, cuts):
    """Each block of up to BLOCK slots, DRAW_CHUNK generators at a time, bucketed.

    Yields (lo, hi, buckets) with buckets[j - lo, t] = sum_i [U >= cuts[i]] as
    int8 for the uniform U of gens[j] at slot t of the block. A yielded array
    is valid until the next one.
    """
    count = len(gens)
    shape = (min(DRAW_CHUNK, count), min(BLOCK, n))
    uniforms = np.empty(shape)
    above = np.empty(shape, dtype=np.bool_)
    buckets = np.empty(shape, dtype=np.int8)
    for done in range(0, n, BLOCK):
        steps = min(BLOCK, n - done)
        for lo in range(0, count, DRAW_CHUNK):
            hi = min(lo + DRAW_CHUNK, count)
            draws, hits, out = (a[:hi - lo, :steps] for a in (uniforms, above, buckets))
            for gen, row in zip(gens[lo:hi], draws):
                gen.random(out=row)
            out.fill(0)
            for cut in cuts:
                np.greater_equal(draws, cut, out=hits)
                out += hits.view(np.int8)
            yield lo, hi, out


def _run_single(params: GeoParams, n: int, gen: np.random.Generator, edges):
    """One trajectory: its maximum and the sums of u over slots (edges[i], edges[i+1]]."""
    c = params.c
    cuts, table = _decode_table(params)
    flat = table.ravel().tolist()
    u = peak = done = batch = 0
    sums = [0] * (len(edges) - 1)
    for _, _, buckets in _draw_buckets([gen], n, cuts):
        path = []
        for b in np.multiply(buckets[0], c + 1, dtype=np.intp).tolist():
            u += flat[b + (u if u < c else c)]
            path.append(u)
        peak = max(peak, max(path))
        _check_state(peak)
        end = done + len(path)
        while batch < len(sums) and edges[batch] < end:
            sums[batch] += sum(path[max(edges[batch] - done, 0):edges[batch + 1] - done])
            if edges[batch + 1] > end:
                break
            batch += 1
        done = end
    return peak, sums


def _run_many(params: GeoParams, n: int, gens) -> np.ndarray:
    """Maxima of len(gens) independent trajectories, vectorized over replications."""
    kernel = _lindley_maxima if params.c == 1 else _gather_maxima
    return kernel(params, n, gens)


def _lindley_maxima(params: GeoParams, n: int, gens) -> np.ndarray:
    """c = 1: each block in closed form, u = S + max(u_0, maximum.accumulate(a - S))."""
    cuts, table = _decode_table(params)
    arrival, step = table[:, 0].copy(), table[:, 1].copy()
    count = len(gens)
    shape = (min(DRAW_CHUNK, count), min(BLOCK, n))
    index = np.empty(shape, dtype=np.intp)
    inc = np.empty(shape, dtype=np.int8)
    level = np.empty(shape, dtype=np.int32)
    path = np.empty(shape, dtype=np.int32)
    u = np.zeros(count, dtype=np.int32)
    peak = np.zeros(count, dtype=np.int32)
    for lo, hi, buckets in _draw_buckets(gens, n, cuts):
        m, span = buckets.shape
        b, out = index[:m, :span], inc[:m, :span]
        np.copyto(b, buckets)
        total = np.cumsum(step.take(b, out=out, mode="clip"), axis=1, dtype=np.int32,
                          out=level[:m, :span])
        queue = np.subtract(arrival.take(b, out=out, mode="clip"), total, out=path[:m, :span])
        np.maximum.accumulate(queue, axis=1, out=queue)
        np.maximum(queue, u[lo:hi, None], out=queue)
        queue += total
        np.maximum(peak[lo:hi], queue.max(axis=1), out=peak[lo:hi])
        u[lo:hi] = queue[:, -1]
        if hi == count:
            _check_state(int(peak.max()))
    return peak


def _gather_maxima(params: GeoParams, n: int, gens) -> np.ndarray:
    """c >= 2: one gather per slot from the flat table at the time-major scaled buckets."""
    c = params.c
    cuts, table = _decode_table(params)
    flat = table.ravel().astype(np.intp)  # intp operands throughout keep each slot's calls fast
    count = len(gens)
    scaled = np.empty((min(BLOCK, n), count), dtype=np.int8)  # b * (c+1) <= 40 at c <= 3
    wide = np.empty((min(SLOT_CHUNK, BLOCK, n), count), dtype=np.intp)
    u = np.zeros(count, dtype=np.intp)
    peak = np.zeros(count, dtype=np.intp)
    index = np.empty(count, dtype=np.intp)
    step = np.empty(count, dtype=np.intp)
    for lo, hi, buckets in _draw_buckets(gens, n, cuts):
        rows = buckets.shape[1]
        np.multiply(buckets.T, c + 1, out=scaled[:rows, lo:hi])
        if hi < count:
            continue
        for start in range(0, rows, SLOT_CHUNK):
            part = wide[:min(SLOT_CHUNK, rows - start)]
            np.copyto(part, scaled[start:start + len(part)])
            for row in part:
                np.minimum(u, c, out=index)
                index += row
                flat.take(index, out=step, mode="clip")  # in range; "raise" would buffer out
                u += step
                np.maximum(peak, u, out=peak)
        _check_state(int(peak.max()))
    return peak


def simulate_max_length(params: GeoParams, n: int, seed: int) -> int:
    """Maximum queue length observed over an n-step trajectory."""
    if n < 1:
        raise RangeError(f"horizon must be at least 1 step, got {n}")
    peak, _ = _run_single(params, n, np.random.Generator(np.random.PCG64(seed)), [0, n])
    return peak


def time_average_queue_length(params: GeoParams, n: int, seed: int,
                              batches: int = 100):
    """Time average of the queue length over one long run.

    Returns (mean, standard error); the SE comes from batch means, the
    standard device for serially correlated output.
    """
    if n < batches or batches < 2:
        raise RangeError(f"need n >= batches >= 2, got n={n}, batches={batches}")
    edges = [round(i * n / batches) for i in range(batches + 1)]
    gen = np.random.Generator(np.random.PCG64(seed))
    _, batch_sums = _run_single(params, n, gen, edges)
    means = np.asarray(batch_sums) / np.diff(edges)
    return float(means.mean()), float(means.std(ddof=1) / sqrt(batches))


def replicate_max_length(config: GeoSimConfig) -> SimResult:
    """Independent maxima, one per replication, with deterministic substreams.

    The sample multiset depends only on (params, n, reps, seed): substreams
    are derived per replication index, and REP_CHUNK, which bounds the
    increment table's memory, has no effect on the result.
    """
    seeds = [substream_seed(config.seed, i) for i in range(config.reps)]
    samples = np.empty(config.reps, dtype=np.int64)
    for lo in range(0, config.reps, REP_CHUNK):
        gens = list(substream_generators(seeds[lo:lo + REP_CHUNK]))
        samples[lo:lo + REP_CHUNK] = _run_many(config.params, config.n, gens)
    return make_sim_result(samples, seeds)
