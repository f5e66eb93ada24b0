"""Simulator for the discrete-time multi-server queue.

Each slot takes c+1 uniforms from the replication's own PCG64 stream: the
arrival's, then one per server. With a the arrival indicator and C[k] the
completions among the first k servers (C[0] = 0), the queue length moves as

    u <- u + a - C[min(u, c)]

A busy server can only finish a customer who is there, so u never drops
below zero, and an arrival into an empty queue starts service the next slot.
PCG64 hands out its doubles in the same order however the draws are split,
so BLOCK and the replication chunks leave every sample unchanged: a run is
fixed by its seeds alone.

One decoder, `_draw_increments`, reads that stream for every path. Over one
block of slots at a time, each generator fills one reused row of uniforms,
which is thresholded at once into the hit indicators of a chunk of
DRAW_CHUNK replications and turned in place into the increment table
inc[k] = a - C[k], k = 0..c, as c+1 int8 per slot. Scratch is sized to the
block and the chunk, never to the horizon. Every kernel reads the table:

- `_run_single` steps one trajectory slot by slot in Python,
  u += inc[min(u, c)], and takes the maximum and the batch sums of
  `time_average_queue_length` from each block's path; at width one a Python
  loop beats any per-slot numpy call by an order of magnitude.
- `_run_many` vectorizes the replications of `replicate_max_length`. At c = 1
  it needs no time loop: the recursion reads u_t = max(u_{t-1} + a_t - d_t,
  a_t) (Lindley 1952), so with S = cumsum(a - d) = cumsum(inc[1]) over a
  block, u = S + max(u_0, maximum.accumulate(a - S)); u is carried across
  blocks. At c >= 2 it keeps one slot loop over all replications, with the
  table transposed time-major, one (c+1)-byte word per replication, so each
  slot is a single gather at index min(u, c) + word offset.

All paths give identical maxima for a seed; `tests/test_geo_stream.py` pins
them to recorded samples and to a plain per-slot reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConvergenceError, RangeError
from .params import GeoParams
from .replication import SimResult, make_sim_result, substream_seed

BLOCK = 512        # slots per generator call (performance only: the stream does not depend on it)
REP_CHUNK = 4096   # replications per _run_many call, bounding its scratch (performance only)
DRAW_CHUNK = 64    # replications drawn and thresholded together (performance only)
STATE_CAP = 2**30  # tripwire: maxima are O(ln n), so this can only mean a bug


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


def _draw_increments(gens, n: int, params: GeoParams):
    """Each block of up to BLOCK slots, DRAW_CHUNK generators at a time, decoded.

    Yields (lo, hi, inc) with inc[j - lo, t, k] = a - C[k], k = 0..c, as int8
    for the c+1 uniforms of gens[j] at slot t of the block. Each generator
    fills one reused row of uniforms, thresholded at once into the chunk's hit
    indicators [U_0 < p, U_1 < r, ..., U_c < r]; those become the increments
    in place. A yielded array is valid until the next one.
    """
    count, c = len(gens), params.c
    span = min(BLOCK, n)
    thresholds = np.full((span, c + 1), params.r)
    thresholds[:, 0] = params.p
    row = np.empty((span, c + 1))
    hits = np.empty((min(DRAW_CHUNK, count), span, c + 1), dtype=np.bool_)
    for done in range(0, n, BLOCK):
        steps = min(BLOCK, n - done)
        uniforms, limits = row[:steps], thresholds[:steps]
        for lo in range(0, count, DRAW_CHUNK):
            hi = min(lo + DRAW_CHUNK, count)
            chunk = hits[:hi - lo, :steps]
            for j, out in enumerate(chunk, lo):
                gens[j].random(out=uniforms)
                np.less(uniforms, limits, out=out)
            inc = chunk.view(np.int8)
            for k in range(1, c + 1):
                np.subtract(inc[:, :, k - 1], inc[:, :, k], out=inc[:, :, k])
            yield lo, hi, inc


def _run_single(params: GeoParams, n: int, gen: np.random.Generator, edges):
    """One trajectory: its maximum and the sums of u over slots (edges[i], edges[i+1]]."""
    c = params.c
    u = peak = done = batch = 0
    sums = [0] * (len(edges) - 1)
    for _, _, inc in _draw_increments([gen], n, params):
        path = []
        for row in inc[0].tolist():
            u += row[u if u < c else c]
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
    count = len(gens)
    shape = (min(DRAW_CHUNK, count), min(BLOCK, n))
    level = np.empty(shape, dtype=np.int32)
    path = np.empty(shape, dtype=np.int32)
    u = np.zeros(count, dtype=np.int32)
    peak = np.zeros(count, dtype=np.int32)
    for lo, hi, inc in _draw_increments(gens, n, params):
        m, span = inc.shape[:2]
        total = np.cumsum(inc[:, :, 1], axis=1, dtype=np.int32, out=level[:m, :span])
        queue = np.subtract(inc[:, :, 0], total, out=path[:m, :span])
        np.maximum.accumulate(queue, axis=1, out=queue)
        np.maximum(queue, u[lo:hi, None], out=queue)
        queue += total
        np.maximum(peak[lo:hi], queue.max(axis=1), out=peak[lo:hi])
        u[lo:hi] = queue[:, -1]
        if hi == count:
            _check_state(int(peak.max()))
    return peak


def _gather_maxima(params: GeoParams, n: int, gens) -> np.ndarray:
    """c >= 2: one gather per slot from the time-major increment table."""
    c = params.c
    count = len(gens)
    word = np.dtype((np.void, c + 1))  # one slot's c+1 increments
    table = np.empty((min(BLOCK, n), count * word.itemsize), dtype=np.int8)
    offsets = np.arange(count) * word.itemsize
    u = np.zeros(count, dtype=np.intp)
    peak = np.zeros(count, dtype=np.intp)
    index = np.empty(count, dtype=np.intp)
    step = np.empty(count, dtype=np.int8)
    for lo, hi, inc in _draw_increments(gens, n, params):
        rows = inc.shape[1]
        table.view(word)[:rows, lo:hi] = inc.view(word)[:, :, 0].T
        if hi < count:
            continue
        for row in table[:rows]:
            np.minimum(u, c, out=index)
            index += offsets
            row.take(index, out=step, mode="clip")  # in range; "raise" would buffer out
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
        gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds[lo:lo + REP_CHUNK]]
        samples[lo:lo + REP_CHUNK] = _run_many(config.params, config.n, gens)
    return make_sim_result(samples, seeds)
