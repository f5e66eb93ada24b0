"""Simulator for the discrete-time multi-server queue.

Each slot takes one uniform U from the replication's own PCG64 stream. With
k = min(u, c) busy servers, the queue length moves by the inverse CDF of the
increment law F_k, row k of `increment_distribution(params)`, at U:

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

- `_walk_tables` serves both kernels. A slot adds inc[min(u, c)], a pure
  shift once u >= c, so over L slots every start u >= cL moves alike. For
  every start min(u, cL) and combination of L buckets (one int16 index, from
  `_group_indices`), the tables give the change in u, the highest u reached
  and the sum of u; the last (slots mod L) slots take a shorter walk's.
- `_run_single` steps one trajectory L slots per Python iteration, in draws
  of 4,096 slots: draws of 32,768 took 5*10^4 slots at c = 3 from 6.2 to
  5.7 ms but the traced peak memory from 0.28 to 1.1 MB (2-vCPU Xeon).
- `_run_many` vectorizes the replications of `replicate_max_length`. At c = 1
  it needs no time loop: the recursion reads u_t = max(u_{t-1} + a_t - d_t,
  a_t) (Lindley 1952), so with S = cumsum(inc[1]) over a block,
  u = S + max(u_0, maximum.accumulate(a - S)); u is carried across blocks.
  At c >= 2 it moves every replication L slots per step, with two gathers.

All paths give identical maxima for a seed; `tests/test_geo_stream.py` pins
them to recorded samples and to a plain per-slot reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import ConvergenceError, RangeError
from .params import GeoParams, increment_distribution
from .replication import (SimResult, check_campaign, make_sim_result, substream_generators,
                          substream_seed)

BLOCK = 512        # slots per generator call (performance only: the stream does not depend on it)
REP_CHUNK = 4096   # replications per _run_many call, bounding its scratch (performance only)
DRAW_CHUNK = 64    # replications drawn and bucketed together (performance only)
SCALAR_BLOCKS = 8  # BLOCKs per draw of one trajectory in _run_single (performance only)
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
        check_campaign(self.seed, horizon=self.n, replications=self.reps)


def _decode_table(params: GeoParams):
    """The sorted cuts t_1 < ... < t_m and the int8 table of inc[0..c] per bucket.

    Law k contributes its partial sums from +1 down, all but the last (which
    is 1 up to rounding), each clipped into [t'_{j-1}, t'_j] of law k-1's
    sums t' so that inc[k-1] - 1 <= inc[k] <= inc[k-1] holds exactly. In
    bucket b, inc[k] is 1 minus the number of law k's sums <= t_b.
    """
    c, laws = params.c, []
    for k, row in enumerate(increment_distribution(params)):
        sums = np.cumsum(row[c + 1:c - k:-1]).tolist()  # steps +1 down to 1 - k
        if laws:
            lower, upper = [-inf, *laws[-1]], [*laws[-1], inf]
            sums = [min(max(s, low), high) for s, low, high in zip(sums, lower, upper)]
        laws.append(sums)
    cuts = sorted({s for sums in laws for s in sums})
    table = [[1 - sum(s <= t for s in sums) for sums in laws] for t in [-1.0, *cuts]]
    return np.array(cuts), np.array(table, dtype=np.int8)  # m <= 10 at c <= 3: int8 is ample


def _draw_buckets(gens, n: int, cuts, block: int):
    """Each block of up to `block` slots, DRAW_CHUNK generators at a time, bucketed.

    Yields (lo, hi, buckets) with buckets[j - lo, t] = sum_i [U >= cuts[i]] as
    int8 for the uniform U of gens[j] at slot t of the block. A yielded array
    is valid until the next one.
    """
    count = len(gens)
    shape = (min(DRAW_CHUNK, count), min(block, n))
    uniforms = np.empty(shape)
    above = np.empty(shape, dtype=np.bool_)
    buckets = np.empty(shape, dtype=np.int8)
    for done in range(0, n, block):
        steps = min(block, n - done)
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


def _run_single(params: GeoParams, gen: np.random.Generator, edges):
    """One trajectory, drawn batch by batch: its maximum and the sum of u over each batch."""
    c = params.c
    cuts, table = _decode_table(params)
    walks = [tuple(map(memoryview, walk)) for walk in _walk_tables(c, table)]  # int16 rows
    group, cap = len(walks) - 1, c * (len(walks) - 1)
    index = np.empty((SCALAR_BLOCKS * BLOCK // group + 1, 1), dtype=np.int16)
    u = peak = 0
    sums = []
    for lo, hi in zip(edges, edges[1:]):
        total = 0
        for _, _, buckets in _draw_buckets([gen], hi - lo, cuts, SCALAR_BLOCKS * BLOCK):
            groups, rest = _group_indices(buckets, group, len(table), cap + 1, index)
            offsets = index[:groups + (rest > 0), 0].tolist()
            for k, run in ((group, offsets[:groups]), (rest, offsets[groups:])):
                delta, top, area = walks[k]
                for g in run:
                    i = g + (u if u < cap else cap)
                    total += k * u + area[i]
                    if u + k > peak and u + top[i] > peak:  # k slots climb at most k
                        peak = u + top[i]
                    u += delta[i]
            _check_state(peak)
        sums.append(total)
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
    for lo, hi, buckets in _draw_buckets(gens, n, cuts, BLOCK):
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


def _walk_tables(c: int, table):
    """The walk of u over k = 0..L slots from each start state, one flat table per k.

    walks[k] stacks (delta, top, area). For the buckets b_0..b_{k-1} of k slots
    in a row, g = sum_i b_i (m+1)^i, s = min(u, cL) and S = cL + 1, entry
    g*S + s is the change in u over the k slots, the highest u among the start
    and those slots, and the sum of u over those slots, each less the start.
    No walk of k <= L slots from u >= cL falls below c before its last slot,
    so all such starts move alike. L is the largest with S (m+1)^L <= 2^15.
    """
    table, radix = table.astype(np.int16), len(table)
    group = 0
    while (c * (group + 1) + 1) * radix ** (group + 1) <= 2**15:  # every index fits int16
        group += 1
    start = np.arange(c * group + 1)
    walks = [np.zeros((3, len(start)), dtype=np.int16)]
    for _ in range(group):  # each added slot's bucket is the most significant digit of g
        delta, top, area = walks[-1].reshape(3, -1, len(start))
        moved = delta + table[:, np.minimum(start + delta, c)]
        walks.append(np.stack([moved, np.maximum(top, moved), area + moved]).reshape(3, -1))
    return walks


def _group_indices(buckets, group: int, radix: int, span: int, out):
    """out[j, row] = g*S for the j-th run of `group` buckets of each row, the last maybe short.

    Horner's rule in out's int16 (see _walk_tables); out needs slots // group + 1
    rows. Returns divmod(slots, group).
    """
    rows, (groups, rest) = len(buckets), divmod(buckets.shape[1], group)
    whole = buckets[:, :groups * group].reshape(rows, groups, group).transpose(1, 0, 2)
    for digits, into in ((whole, out[:groups, :rows]),
                         (buckets[:, groups * group:], out[groups, :rows])):
        if digits.shape[-1]:
            np.copyto(into, digits[..., -1])
            for i in range(digits.shape[-1] - 2, -1, -1):
                into *= radix
                into += digits[..., i]
            into *= span
    return groups, rest


def _gather_maxima(params: GeoParams, n: int, gens) -> np.ndarray:
    """c >= 2: L slots per step, u += delta[g*S + min(u, cL)], from `_walk_tables`."""
    c = params.c
    cuts, table = _decode_table(params)
    walks = [walk[:2].astype(np.intp) for walk in _walk_tables(c, table)]  # delta, top
    group, cap = len(walks) - 1, c * (len(walks) - 1)
    count = len(gens)
    grouped = np.empty((min(BLOCK, n) // group + 1, count), dtype=np.int16)
    caps = np.full(count, cap, dtype=np.intp)
    u, peak, index, step, high = np.zeros((5, count), dtype=np.intp)
    for lo, hi, buckets in _draw_buckets(gens, n, cuts, BLOCK):
        groups, rest = _group_indices(buckets, group, len(table), cap + 1, grouped[:, lo:hi])
        if hi < count:
            continue
        for k, rows in ((group, grouped[:groups]), (rest, grouped[groups:groups + (rest > 0)])):
            delta, top = walks[k]
            for row in rows:
                np.minimum(u, caps, out=index)
                index += row
                delta.take(index, out=step, mode="clip")  # in range; "raise" would buffer out
                top.take(index, out=high, mode="clip")
                high += u
                np.maximum(peak, high, out=peak)
                u += step
        _check_state(int(peak.max()))
    return peak


def simulate_max_length(params: GeoParams, n: int, seed: int) -> int:
    """Maximum queue length observed over an n-step trajectory; GeoSimConfig checks n and seed."""
    GeoSimConfig(params, n, 1, seed)
    peak, _ = _run_single(params, np.random.Generator(np.random.PCG64(seed)), [0, n])
    return peak


def time_average_queue_length(params: GeoParams, n: int, seed: int, batches: int = 100):
    """Time average of the queue length over one long run.

    Returns (mean, standard error); the SE comes from batch means, the
    standard device for serially correlated output.
    """
    if n < batches or batches < 2:
        raise RangeError(f"need n >= batches >= 2, got n={n}, batches={batches}")
    check_campaign(seed, horizon=n, batches=batches)
    edges = [round(i * n / batches) for i in range(batches + 1)]
    gen = np.random.Generator(np.random.PCG64(seed))
    _, batch_sums = _run_single(params, gen, edges)
    means = np.asarray(batch_sums) / np.diff(edges)
    return float(means.mean()), float(means.std(ddof=1) / sqrt(batches))


def replicate_max_length(config: GeoSimConfig) -> SimResult:
    """Independent maxima, one per replication, with deterministic substreams.

    The sample multiset depends only on (params, n, reps, seed): substreams
    are derived per replication index, and REP_CHUNK, which bounds the
    generators alive at once, has no effect on the result.
    """
    seeds = [substream_seed(config.seed, i) for i in range(config.reps)]
    samples = np.empty(config.reps, dtype=np.int64)
    for lo in range(0, config.reps, REP_CHUNK):
        gens = list(substream_generators(seeds[lo:lo + REP_CHUNK]))
        samples[lo:lo + REP_CHUNK] = _run_many(config.params, config.n, gens)
    return make_sim_result(samples, seeds)
