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
(m+1) x (c+1) int8 table, `_decode_table`, maps b to inc[0..c]. A horizon
is split into the fewest blocks of at most BLOCK slots, equal to within one
slot (`_blocks`): 2500 slots take 3 blocks of 833-834, so each generator pays
3 fill calls, each with a fixed cost, instead of 5. Over one block at a time,
a chunk of DRAW_CHUNK generators each fill one reused row of uniforms, and
the chunk is bucketed at once. Scratch is sized to the longest block and the
chunk, never to the horizon. PCG64 hands out its doubles in the same order
however the draws are split, so BLOCK and the chunks leave every sample
unchanged: a run is fixed by its seeds alone.

- `_walk_tables` serves both kernels. A slot adds inc[min(u, c)], a pure
  shift once u >= c, so over L slots every start u >= cL moves alike. For
  every start min(u, cL) and combination of L buckets (one int16 index, from
  `_group_indices`), the tables give the change in u, the highest u reached
  and the sum of u; the last (slots mod L) slots take a shorter walk's.
- `_run_single` takes single runs, time averages and narrow chunks. It walks
  the whole horizon once, in draws of at most SCALAR_DRAW * BLOCK = 65,536
  slot-replications, the walked row counted as one more generator (its
  recorded states and takes hold about as many bytes a slot as a decoded
  row): a single run draws 32,768 slots at a time, 16 generators 3,855 each.
  It buckets and groups each draw for all its generators at once. Per
  generator, one list comprehension advances u over the draw's whole groups
  and records u; numpy takes at those start states then give the peak,
  max(u + top); the last (slots mod L) slots are stepped in Python. Draws
  ignore batch edges, and only a time average reads the area table: the sum
  of u up to an edge is L sum(u) + sum(area) over the whole groups before it,
  read from one int64 prefix sum per row and draw, plus the area of the
  first d slots of the group the edge cuts, which walks[d] gives at the d low
  digits of that group's index. It builds its tables once per call.
- `_run_many` takes the replications of `replicate_max_length`, one kernel
  per chunk by its width. `_gather_maxima` moves every replication L slots
  per step, with two gathers, but pays seven numpy calls per step at any
  width. A narrow c >= 2 chunk (at most SCALAR_REPS = 28 generators) goes
  through one `_run_single` call instead: scalar / gather crosses 1 between
  28 and 32 generators at c = 2 and 3, over 2500 and 5*10^4 slots.
  A narrow c = 1 chunk (fewer than 2 * DRAW_CHUNK generators) needs
  no time loop: the recursion reads u_t = max(u_{t-1} + a_t - d_t, a_t)
  (Lindley 1952), so with S = cumsum(inc[1]) over a block,
  u = S + max(u_0, maximum.accumulate(a - S)); u is carried across blocks.
  Its ten or so elementwise passes per slot-replication lose to the gather
  from about 140 replications on, where the gather's per-step numpy calls are
  spread over enough of them; the cut is at 128 = 2 * DRAW_CHUNK.

The measured ratios behind each cut are in CHANGES.md and the BENCH files.

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

BLOCK = 1024       # most slots per generator call (performance only: the stream does not depend on it)
REP_CHUNK = 4096   # replications per _run_many call, bounding its scratch (performance only)
DRAW_CHUNK = 64    # replications drawn and bucketed together (performance only)
SCALAR_DRAW = 64   # BLOCKs of slot-replications per _run_single draw (performance only)
SCALAR_REPS = 28   # widest c >= 2 chunk walked by _run_single (performance only)
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


def _blocks(n: int, block: int) -> list[int]:
    """Lengths of the fewest blocks of at most `block` slots that cover n, longest first.

    They differ by at most one slot; n = 0 takes no block.
    """
    parts = -(-n // block)
    base, extra = divmod(n, parts) if parts else (0, 0)
    return [base + 1] * extra + [base] * (parts - extra)


def _draw_buckets(gens, n: int, cuts, block: int):
    """Each of `_blocks(n, block)`, DRAW_CHUNK generators at a time, bucketed.

    Yields (lo, hi, buckets) with buckets[j - lo, t] = sum_i [U >= cuts[i]] as
    int8 for the uniform U of gens[j] at slot t of the block. A yielded array
    is valid until the next one.
    """
    count, blocks = len(gens), _blocks(n, block)
    size = min(DRAW_CHUNK, count) * max(blocks, default=0)
    uniforms = np.empty(size)
    above = np.empty(size, dtype=np.bool_)
    buckets = np.empty(size, dtype=np.int8)
    for steps in blocks:
        for lo in range(0, count, DRAW_CHUNK):
            hi = min(lo + DRAW_CHUNK, count)
            # contiguous views: sliced from 2-D scratch, a block one slot shorter than
            # the longest leaves a gap after each row, and the passes below run 3x slower
            draws, hits, out = (a[:(hi - lo) * steps].reshape(hi - lo, steps)
                                for a in (uniforms, above, buckets))
            for gen, row in zip(gens[lo:hi], draws):
                gen.random(out=row)
            out.fill(0)
            for cut in cuts:
                np.greater_equal(draws, cut, out=hits)
                out += hits.view(np.int8)
            yield lo, hi, out


def _head_sum(parts, radix: int, cap: int, g: int, s: int, d: int) -> int:
    """Sum of u over the first d slots of a group with index g*S, from state s.

    parts[d] is the area table of d slots, read at the d low digits of g.
    """
    if not d:
        return 0
    return d * s + parts[d][g % (radix**d * (cap + 1)) + (s if s < cap else cap)]


def _run_single(params: GeoParams, gens, n: int | None = None, *, edges=None):
    """Trajectories of n slots, each draw decoded for all of them at once.

    Returns each generator's maximum and, given batch edges
    0 = e_0 <= ... <= e_B instead of n (the horizon is then e_B), its sums
    of u over the batches (else None). Per draw and row, sums[q] is the sum
    of u over the first q whole groups; an edge at (q, d) within the draw
    adds the first d slots of group q (`_head_sum`).
    """
    if edges is not None:
        n = edges[-1]
    c, (cuts, table) = params.c, _decode_table(params)
    walks, radix = _walk_tables(c, table), len(table)
    group, cap = len(walks) - 1, c * (len(walks) - 1)
    deltas, tops = ([memoryview(walk[row]) for walk in walks] for row in (0, 1))
    delta, top = deltas[group], walks[group][1]
    count, draw = len(gens), max(SCALAR_DRAW * BLOCK // (len(gens) + 1), 1)  # + the walked row
    index = np.empty((min(draw, n) // group + 1, min(DRAW_CHUNK, count)), dtype=np.int16)
    u, peaks, start = [0] * count, [0] * count, 0
    if edges is not None:  # only a time average reads the area tables
        areas = [walk[2] for walk in walks]
        area, parts = areas[group], [memoryview(walk) for walk in areas]
        sums = np.zeros(len(index), dtype=np.int64)  # sums[0] stays 0
        marks, totals, taken = [[] for _ in gens], [0] * count, 0
    for first, last, buckets in _draw_buckets(gens, n, cuts, draw):
        groups, rest = _group_indices(buckets, group, radix, cap + 1, index)
        rows, steps = last - first, buckets.shape[1]
        if edges is not None and first == 0:  # (group, slot in it) of each edge in this draw
            here = [divmod(e - start, group) for e in edges[taken:] if e <= start + steps]
            taken += len(here)
        for j, column in enumerate(index[:groups + 1, :rows].T, first):
            v, codes = u[j], memoryview(column)  # whole groups, then the leftover one
            path = [v]
            if groups:
                path += [v := v + delta[g + (v if v < cap else cap)] for g in codes[:groups]]
                starts = np.fromiter(path, np.int32, groups + 1)[:-1]  # u < STATE_CAP + draw
                at = np.minimum(starts, cap)
                at += column[:groups]
                if edges is not None:
                    into = sums[1:groups + 1]
                    np.multiply(starts, group, out=into, dtype=np.int64)
                    into += area.take(at)
                    np.cumsum(into, out=into)
                np.add(starts, top.take(at), out=at)
                peaks[j] = max(peaks[j], int(at.max()))
            u[j] = v
            if rest:
                i = codes[groups] + (v if v < cap else cap)
                peaks[j] = max(peaks[j], v + tops[rest][i])
                u[j] += deltas[rest][i]
            if edges is not None:
                total = totals[j]
                marks[j] += [total + int(sums[q])
                             + _head_sum(parts, radix, cap, codes[q], path[q], d) for q, d in here]
                totals[j] = total + int(sums[groups]) + _head_sum(parts, radix, cap, codes[groups],
                                                                   v, rest)
        _check_state(max(peaks[first:last]))
        if last == count:
            start += steps
    if edges is None:
        return peaks, None
    return peaks, [[b - a for a, b in zip(mark, mark[1:])] for mark in marks]


def _run_many(params: GeoParams, n: int, gens) -> np.ndarray:
    """Maxima of len(gens) independent trajectories, by the kernel fastest at that width.

    At c >= 2, a chunk of at most SCALAR_REPS generators goes through one
    `_run_single` call; wider chunks take the gather. At c = 1 the Lindley
    kernel takes chunks below 2 * DRAW_CHUNK and the gather the rest. The
    module docstring has the timings.
    """
    if params.c > 1 and len(gens) <= SCALAR_REPS:
        return np.array(_run_single(params, gens, n)[0])
    narrow = params.c == 1 and len(gens) < 2 * DRAW_CHUNK
    kernel = _lindley_maxima if narrow else _gather_maxima
    return kernel(params, n, gens)


def _lindley_maxima(params: GeoParams, n: int, gens) -> np.ndarray:
    """Narrow c = 1 chunks, each block as u = S + max(u_0, maximum.accumulate(a - S))."""
    cuts, table = _decode_table(params)
    arrival, step = table[:, 0].copy(), table[:, 1].copy()
    count = len(gens)
    size = min(DRAW_CHUNK, count) * _blocks(n, BLOCK)[0]
    index = np.empty(size, dtype=np.intp)
    inc = np.empty(size, dtype=np.int8)
    level = np.empty(size, dtype=np.int32)
    path = np.empty(size, dtype=np.int32)
    u = np.zeros(count, dtype=np.int32)
    peak = np.zeros(count, dtype=np.int32)
    for lo, hi, buckets in _draw_buckets(gens, n, cuts, BLOCK):
        # contiguous views, as in _draw_buckets
        b, out, total, queue = (a[:buckets.size].reshape(buckets.shape)
                                for a in (index, inc, level, path))
        np.copyto(b, buckets)
        np.cumsum(step.take(b, out=out, mode="clip"), axis=1, dtype=np.int32, out=total)
        np.subtract(arrival.take(b, out=out, mode="clip"), total, out=queue)
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
    """L slots per step, u += delta[g*S + min(u, cL)], from `_walk_tables`."""
    c = params.c
    cuts, table = _decode_table(params)
    walks = [walk[:2].astype(np.intp) for walk in _walk_tables(c, table)]  # delta, top
    group, cap = len(walks) - 1, c * (len(walks) - 1)
    count, size = len(gens), _blocks(n, BLOCK)[0] // group + 1
    grouped = np.empty((size, count), dtype=np.int16)
    scratch = np.empty(size * min(DRAW_CHUNK, count), dtype=np.int16)
    caps = np.full(count, cap, dtype=np.intp)
    u, peak, index, step, high = np.zeros((5, count), dtype=np.intp)
    for lo, hi, buckets in _draw_buckets(gens, n, cuts, BLOCK):
        # Horner passes into grouped's strided columns ran 1.7x slower than into
        # a contiguous chunk, which is then copied over in one call
        chunk = scratch[:size * (hi - lo)].reshape(size, hi - lo)
        groups, rest = _group_indices(buckets, group, len(table), cap + 1, chunk)
        grouped[:groups + 1, lo:hi] = chunk[:groups + 1]
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
    gen = np.random.Generator(np.random.PCG64(seed))
    (peak,), _ = _run_single(params, [gen], n)
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
    _, (batch_sums,) = _run_single(params, [gen], edges=edges)
    means = np.asarray(batch_sums) / np.diff(edges)
    return float(means.mean()), float(means.std(ddof=1) / sqrt(batches))


def replicate_max_length(config: GeoSimConfig) -> SimResult:
    """Independent maxima, one per replication, with deterministic substreams.

    The sample multiset depends only on (params, n, reps, seed): substreams
    are derived per replication index, and REP_CHUNK, which bounds the
    generators alive at once, has no effect on the result.
    """
    seeds = substream_seed(config.seed, np.arange(config.reps))
    samples = np.empty(config.reps, dtype=np.int64)
    for lo in range(0, config.reps, REP_CHUNK):
        gens = list(substream_generators(seeds[lo:lo + REP_CHUNK]))
        samples[lo:lo + REP_CHUNK] = _run_many(config.params, config.n, gens)
    return make_sim_result(samples, seeds)
