"""The outputs of the discrete-queue simulator, pinned bit for bit.

The stream takes one uniform per slot and maps it through the inverse CDF of
the increment law of the slot's busy servers, read from +1 down.
`data/geo_stream_golden.json` holds `replicate_max_length` samples and
`data/geo_scalar_golden.json` the `simulate_max_length` maxima and the
`time_average_queue_length` (mean, se) pairs, at horizons and batch edges on
both sides of BLOCK. Both files are computed by the plain-Python per-slot
reference `oracles.geo_max_by_recursion`, not by the kernels under test. Any
change to a kernel, the substream derivation or the uniform stream shows
here, even when the scalar and vectorized paths drift together. A deliberate
stream change must be versioned in the run manifest; regenerate both files
then with `PYTHONPATH=src python tests/test_geo_stream.py`.

The property tests check the decode table against the increment laws, the
multi-slot walk tables against the per-slot rule, and every kernel against
the reference across block and sub-chunk edges. `_run_single` draws
SCALAR_DRAW * BLOCK // (width + 1) slots at a time for each of its `width`
generators, whatever the batch edges, so its horizons on both sides of the
draws of 1 and of 16 generators, and batch edges anywhere in a draw, are
checked against the reference directly, without a golden file.
"""
import json
from itertools import count
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import queuemax.geo_sim as geo_sim
from queuemax.params import MAX_SERVERS
from queuemax import (GeoSimConfig, increment_distribution, replicate_max_length,
                      simulate_max_length, substream_generator, time_average_queue_length,
                      validate_geo_params)

from oracles import geo_max_by_recursion

GOLDEN = Path(__file__).parent / "data" / "geo_stream_golden.json"
SCALAR_GOLDEN = Path(__file__).parent / "data" / "geo_scalar_golden.json"
PARAMS = {1: validate_geo_params(1 / 3, 1 / 2, 1),
          2: validate_geo_params(0.3, 0.25, 2),
          3: validate_geo_params(1 / 3, 1 / 6, 3)}
HORIZONS = (1, 1500, 2500)
REP_COUNTS = (1, 65, 130)
BLOCK, CHUNK, SCALAR_REPS = geo_sim.BLOCK, geo_sim.DRAW_CHUNK, geo_sim.SCALAR_REPS
# (n, batches): batch edges at, just past and across the edges of blocks of 512 slots, and
# horizons one slot either side of BLOCK and one past 2 * BLOCK, where the block count steps
TIME_AVERAGES = ((100, 100), (513, 2), (1000, 7), (1537, 3), (2048, 4), (5000, 9),
                 (BLOCK - 1, 3), (BLOCK + 1, 2), (2 * BLOCK + 1, 3))
MAXIMA_HORIZONS = (1, 511, 512, 513, 1537, 3000, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1)


def _draw(width, block=BLOCK):
    """Slots per draw of `_run_single` for `width` generators, the walked row counted."""
    return max(geo_sim.SCALAR_DRAW * block // (width + 1), 1)


SINGLE_DRAW = _draw(1)
# (width, j, batches): horizons of draw + j slots and batches of as many, j = -1..5, for
# the draws of 1 and of 16 generators: one draw or two nearly equal ones, whose lengths
# mod L take every value (L <= 6 here)
DRAW_CASES = tuple((width, j, batches) for width in (1, 16) for batches in (None, 2)
                   for j in range(-1, 6))


def _cases():
    for c in PARAMS:
        for n in HORIZONS:
            for reps in REP_COUNTS:
                yield c, n, reps, 1000 * c + 10 * HORIZONS.index(n) + REP_COUNTS.index(reps)


def _samples(c, n, reps, seed):
    return replicate_max_length(GeoSimConfig(PARAMS[c], n, reps, seed)).samples.tolist()


def _reference_samples(c, n, reps, seed):
    p, r = PARAMS[c].p, PARAMS[c].r
    return [geo_max_by_recursion(p, r, c, n, substream_generator(seed, i))[0]
            for i in range(reps)]


def _golden():
    return {(case["c"], case["n"], case["reps"], case["seed"]): case["samples"]
            for case in json.loads(GOLDEN.read_text())["cases"]}


@pytest.mark.parametrize("c,n,reps,seed", list(_cases()))
def test_samples_match_recorded_stream(c, n, reps, seed):
    assert _samples(c, n, reps, seed) == _golden()[c, n, reps, seed]


def _scalar_cases():
    for c in PARAMS:
        for n, batches in TIME_AVERAGES:
            yield c, n, batches, 100 * c + n
        for n in MAXIMA_HORIZONS:
            yield c, n, None, 200 * c + n


def _scalar_output(c, n, batches, seed):
    if batches is None:
        return simulate_max_length(PARAMS[c], n, seed)
    return list(time_average_queue_length(PARAMS[c], n, seed, batches))


def _reference_scalar_output(c, n, batches, seed):
    """What the scalar path must return, from the reference's maximum and path sums."""
    p, r = PARAMS[c].p, PARAMS[c].r
    gen = np.random.Generator(np.random.PCG64(seed))
    if batches is None:
        return geo_max_by_recursion(p, r, c, n, gen)[0]
    edges = [round(i * n / batches) for i in range(batches + 1)]
    means = np.asarray(geo_max_by_recursion(p, r, c, n, gen, edges)[1]) / np.diff(edges)
    return [float(means.mean()), float(means.std(ddof=1) / sqrt(batches))]


def _scalar_golden():
    return {(case["c"], case["n"], case["batches"], case["seed"]): case["output"]
            for case in json.loads(SCALAR_GOLDEN.read_text())["cases"]}


@pytest.mark.parametrize("block", [BLOCK, 1, 7, 333])
@pytest.mark.parametrize("c,n,batches,seed", list(_scalar_cases()))
def test_scalar_path_matches_recorded_stream(c, n, batches, seed, block, monkeypatch):
    monkeypatch.setattr(geo_sim, "BLOCK", block)
    assert _scalar_output(c, n, batches, seed) == _scalar_golden()[c, n, batches, seed]


@pytest.mark.parametrize("block", [BLOCK, 1, 7, 333])
@pytest.mark.parametrize("c", list(PARAMS))
@pytest.mark.parametrize("width,j,batches", DRAW_CASES)
def test_scalar_path_matches_reference_across_draws(c, width, j, batches, block, monkeypatch):
    monkeypatch.setattr(geo_sim, "BLOCK", block)  # draws scale with BLOCK
    n = (draw := _draw(width, block) + j) * (batches or 1)
    edges = None if batches is None else [0, draw, n]
    seed = 300 * c + n + width
    gens = [substream_generator(seed, i) for i in range(width)]
    peaks, sums = (geo_sim._run_single(PARAMS[c], gens, n) if edges is None
                   else geo_sim._run_single(PARAMS[c], gens, edges=edges))
    p, r = PARAMS[c].p, PARAMS[c].r
    want = [geo_max_by_recursion(p, r, c, n, substream_generator(seed, i), edges)
            for i in range(width)]
    assert peaks == [peak for peak, _ in want]
    assert sums == (None if edges is None else [batch for _, batch in want])


@pytest.mark.parametrize("c", list(PARAMS))
def test_scalar_maxima_over_short_horizons(c):
    # a climb in the last group of L slots is the only one no later group sees
    for n in range(1, 13):
        for seed in range(40):
            want = _reference_scalar_output(c, n, None, seed)
            assert simulate_max_length(PARAMS[c], n, seed) == want, (n, seed)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99), r=st.floats(0.01, 0.99), c=st.sampled_from([1, 2, 3]),
       n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3000]),
       reps=st.sampled_from([1, 2, SCALAR_REPS, SCALAR_REPS + 1, CHUNK - 1, CHUNK, CHUNK + 1,
                             2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]),
       master=st.integers(0, 2**63 - 1))
@example(p=1 / 3, r=1 / 6, c=3, n=BLOCK + 1, reps=SCALAR_REPS, master=3)  # widest scalar chunk
@example(p=1 / 3, r=1 / 6, c=3, n=BLOCK + 1, reps=SCALAR_REPS + 1, master=3)  # c = 3 gather
@example(p=1 / 3, r=1 / 2, c=1, n=BLOCK + 1, reps=2 * CHUNK - 1, master=3)  # widest Lindley chunk
@example(p=1 / 3, r=1 / 2, c=1, n=BLOCK + 1, reps=2 * CHUNK, master=3)  # narrowest c = 1 gather
def test_vector_kernel_matches_exact_recursion(p, r, c, n, reps, master):
    assume(p < c * r)
    params = validate_geo_params(p, r, c)
    gens = [substream_generator(master, i) for i in range(reps)]
    got = geo_sim._run_many(params, n, gens).tolist()
    want = [geo_max_by_recursion(p, r, c, n, substream_generator(master, i))[0]
            for i in range(reps)]
    assert got == want


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99), r=st.floats(0.01, 0.99), c=st.sampled_from([1, 2, 3]),
       n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3000, SINGLE_DRAW - 1, SINGLE_DRAW])
       | st.integers(SINGLE_DRAW + 1, 2 * SINGLE_DRAW + 6),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4), seed=st.integers(0, 2**63 - 1))
@example(p=0.3, r=0.25, c=2, n=BLOCK + 1, cuts=[0.5, 0.0, 0.5], seed=1)  # two empty batches
@example(p=1 / 3, r=1 / 2, c=1, n=2 * SINGLE_DRAW + 5, cuts=[0.5], seed=2)  # an edge in a draw
def test_scalar_path_matches_exact_recursion(p, r, c, n, cuts, seed):
    assume(p < c * r)
    edges = sorted([0, n, *(round(x * n) for x in cuts)])  # repeats make empty batches
    params = validate_geo_params(p, r, c)
    gen = np.random.Generator(np.random.PCG64(seed))
    (peak,), (sums,) = geo_sim._run_single(params, [gen], edges=edges)
    want = geo_max_by_recursion(p, r, c, n, np.random.Generator(np.random.PCG64(seed)), edges)
    assert (peak, sums) == want


CHUNK_BLOCK = 64  # BLOCK in the chunk-walk test: draws of 512-819 slots for its 4-7 generators
CHUNK_DRAW = _draw(5, CHUNK_BLOCK)  # the draw of its examples' 5 generators


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.01, 0.99), r=st.floats(0.01, 0.99), c=st.sampled_from([1, 2, 3]),
       reps=st.integers(4, 7), chunk=st.integers(1, 3),
       n=st.sampled_from([1, CHUNK_BLOCK + 1, CHUNK_DRAW, 2 * CHUNK_DRAW])
       | st.integers(2, 3 * CHUNK_DRAW),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=3),
       whole=st.lists(st.integers(0, CHUNK_DRAW), max_size=3), master=st.integers(0, 2**63 - 1))
# two whole draws, alone and with an edge one slot into the second draw and one on the
# last group boundary of the first (L = 3 at c = 3)
@example(p=1 / 3, r=1 / 6, c=3, reps=5, chunk=2, n=2 * CHUNK_DRAW, cuts=[], whole=[], master=1)
@example(p=1 / 3, r=1 / 6, c=3, reps=5, chunk=2, n=2 * CHUNK_DRAW,
         cuts=[(CHUNK_DRAW + 1) / (2 * CHUNK_DRAW)], whole=[CHUNK_DRAW // 3], master=2)
def test_chunk_walk_matches_exact_recursion_per_generator(p, r, c, reps, chunk, n, cuts, whole,
                                                          master):
    # rows decoded in sub-chunks of DRAW_CHUNK < reps; edges anywhere, or on a group boundary
    assume(p < c * r)
    params = validate_geo_params(p, r, c)
    group = len(geo_sim._walk_tables(c, geo_sim._decode_table(params)[1])) - 1
    edges = sorted([0, n, *(round(x * n) for x in cuts), *(min(k * group, n) for k in whole)])
    gens = [substream_generator(master, i) for i in range(reps)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geo_sim, "BLOCK", CHUNK_BLOCK)
        patch.setattr(geo_sim, "DRAW_CHUNK", chunk)
        peaks, sums = geo_sim._run_single(params, gens, edges=edges)
    want = [geo_max_by_recursion(p, r, c, n, substream_generator(master, i), edges)
            for i in range(reps)]
    assert list(zip(peaks, sums)) == want


def _group(c):
    """L, the slots per walk-table lookup, at PARAMS[c]."""
    return len(geo_sim._walk_tables(c, geo_sim._decode_table(PARAMS[c])[1])) - 1


@settings(max_examples=60, deadline=None)
@given(c=st.sampled_from(list(PARAMS)), block=st.sampled_from([1, 7, 333]),
       batches=st.integers(2, 50), spacing=st.integers(1, 400), extra=st.integers(0, 49),
       seed=st.integers(0, 2**63 - 1))
def test_time_average_matches_exact_recursion(c, block, batches, spacing, extra, seed):
    # edges round(i * n / batches), spaced unevenly when extra > 0, across draws of 32 (block
    # 1), 224 (7) or 10,656 (333) slots: many edges in a draw, or one, or none
    n = batches * spacing + extra % batches
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geo_sim, "BLOCK", block)
        got = list(time_average_queue_length(PARAMS[c], n, seed, batches))
    assert got == _reference_scalar_output(c, n, batches, seed)


@pytest.mark.parametrize("block", [1, 7, 333])
@pytest.mark.parametrize("c", list(PARAMS))
def test_time_average_edges_at_every_offset_and_across_draws(c, block, monkeypatch):
    monkeypatch.setattr(geo_sim, "BLOCK", block)
    draw, group = _draw(1, block), _group(c)
    # edges L + 1 slots apart fall at every offset within a group, many to a draw; edges
    # 2 draws + 1 apart leave most draws without one
    for spacing, batches in ((group + 1, 3 * draw // (group + 1)), (2 * draw + 1, 3)):
        n = spacing * batches
        edges = range(0, n + 1, spacing)
        starts = np.cumsum([0, *geo_sim._blocks(n, draw)])
        inside = [[e - lo for e in edges if lo < e < hi] for lo, hi in zip(starts, starts[1:])]
        if spacing == group + 1:
            assert {e % group for cut in inside for e in cut} == set(range(group))
            assert max(map(len, inside)) >= 2
        else:
            assert min(map(len, inside)) == 0
        got = list(time_average_queue_length(PARAMS[c], n, 400 + c, batches))
        assert got == _reference_scalar_output(c, n, batches, 400 + c), (spacing, batches)


class _Unread:
    """Stands in for an area table: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"an area table was read (.{name})")


def test_maxima_read_no_area_table(monkeypatch):
    real = geo_sim._walk_tables
    monkeypatch.setattr(geo_sim, "_walk_tables",
                        lambda c, table: [(delta, top, _Unread()) for delta, top, _ in real(c, table)])
    for c in PARAMS:
        want = _reference_scalar_output(c, 2000, None, 7)
        assert simulate_max_length(PARAMS[c], 2000, 7) == want
    # a narrow c >= 2 chunk walks through _run_single too
    gens = [substream_generator(7, i) for i in range(SCALAR_REPS)]
    assert geo_sim._run_many(PARAMS[3], 2000, gens).tolist() == _reference_samples(3, 2000,
                                                                                SCALAR_REPS, 7)
    with pytest.raises((AssertionError, TypeError)):  # the stand-in does catch a reader
        time_average_queue_length(PARAMS[3], 2000, 7, 4)


@pytest.mark.parametrize("batches", [2, 100, 10_000])
def test_time_average_decodes_the_horizon_once(batches, monkeypatch):
    calls = []
    real = geo_sim._draw_buckets

    def spy(gens, n, cuts, block):
        calls.append(n)
        return real(gens, n, cuts, block)

    monkeypatch.setattr(geo_sim, "_draw_buckets", spy)
    time_average_queue_length(PARAMS[3], 10_000, 11, batches)
    assert calls == [10_000]


EDGE_RATES = [1e-9, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-9]


@st.composite
def _decode_params(draw):
    """(p, r, c) with r at the ends of (0, 1) and p near c*r or near 0, or anywhere."""
    c = draw(st.sampled_from(range(1, MAX_SERVERS + 1)))
    r = draw(st.sampled_from(EDGE_RATES) | st.floats(1e-12, 1 - 1e-12))
    top = min(c * r, 1.0)
    share = draw(st.sampled_from([1e-300, 1e-12, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - 1e-15])
                 | st.floats(1e-15, 1 - 1e-15))
    p = top * share
    assume(0.0 < p < min(c * r, 1.0))
    return validate_geo_params(p, r, c)


@settings(max_examples=400, deadline=None)
@given(params=_decode_params())
# raw sums of law 3 fall an ulp above one of law 2's, and an ulp below another
@example(params=validate_geo_params(3.0872931667456243e-19, 4.05002061402857e-11, 3))
@example(params=validate_geo_params(1.2289343265380279e-11, 3.97954998344126e-09, 3))
def test_decode_table_reproduces_each_law(params):
    cuts, table = geo_sim._decode_table(params)
    assert table.shape == (len(cuts) + 1, params.c + 1)
    assert np.all(np.diff(cuts) > 0.0)
    widths = np.diff(np.clip([0.0, *cuts, 1.0], 0.0, 1.0))
    c = params.c
    for k, law in enumerate(increment_distribution(params)):
        got = np.bincount(1 - table[:, k], weights=widths, minlength=k + 2)
        assert np.allclose(got[::-1], law[c - k:], rtol=0.0, atol=1e-15)
    drops = -np.diff(table, axis=1)  # inc[k-1] - inc[k] in every bucket
    assert np.all((drops == 0) | (drops == 1))
    if params.c == 1:
        arrival_less_step = table[:, 0] - table[:, 1]
        assert np.all((0 <= arrival_less_step) & (arrival_less_step <= 1))


INT8_MAX, INT16_MAX = np.iinfo(np.int8).max, np.iinfo(np.int16).max


class _Uniforms:
    """A stub generator that hands out the given uniforms, in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, out):
        out[:] = self.values[:len(out)]
        del self.values[:len(out)]


@pytest.mark.parametrize("c", list(PARAMS))
def test_buckets_at_and_just_below_every_cut(c):
    cuts, table = geo_sim._decode_table(PARAMS[c])
    top = np.nextafter(1.0, 0.0)  # the largest uniform a generator can give
    uniforms = [*cuts, *np.nextafter(cuts, 0.0), top]
    [(_, _, buckets)] = geo_sim._draw_buckets([_Uniforms(uniforms), _Uniforms(uniforms[::-1])],
                                              len(uniforms), cuts, BLOCK)
    assert buckets.tolist() == [[int(np.sum(u >= cuts)) for u in values]
                                for values in (uniforms, uniforms[::-1])]
    # the last cut and every uniform above it fall in the table's top row
    assert top >= cuts[-1]
    assert buckets[0, len(cuts) - 1] == buckets[0, -1] == len(table) - 1


@pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1, 2500, 3 * BLOCK + 1])
def test_blocks_are_fewest_and_equal_to_within_one_slot(n):
    uniforms = np.linspace(0.0, 1.0, n, endpoint=False)
    cuts = geo_sim._decode_table(PARAMS[2])[0]
    spans, drawn = [], []
    for _, _, buckets in geo_sim._draw_buckets([_Uniforms(uniforms)], n, cuts, BLOCK):
        spans.append(buckets.shape[1])
        drawn += buckets[0].tolist()
    assert sum(spans) == n and len(spans) == -(-n // BLOCK)
    assert all(span <= BLOCK for span in spans)
    assert max(spans, default=0) - min(spans, default=0) <= 1
    assert drawn == [int(np.sum(u >= cuts)) for u in uniforms]  # every slot once, in order


def test_bucket_count_fits_int8():
    # _draw_buckets counts the cuts at or below each uniform in int8, and the count wraps
    # silently. With at most (c+1)(c+2)/2 cuts, the count can pass int8 from c = 15 on.
    overflows = next(c for c in count(1) if (c + 1) * (c + 2) // 2 > INT8_MAX)
    assert overflows == 15
    assert MAX_SERVERS < overflows, "c >= 15 needs a wider bucket count in _draw_buckets"


def _largest_group_index(c, cuts, group):
    """The largest index into the walk tables of `group` slots: S (m+1)^L - 1, S = cL + 1."""
    return (c * group + 1) * (cuts + 1) ** group - 1


def test_group_indices_fit_int16():
    # _group_indices builds each group index in int16, and Horner's rule wraps silently.
    # Law k adds k+1 partial sums, so there are at most (c+1)(c+2)/2 cuts.
    # From c = 39 on, even a walk of one slot per group overflows int16.
    overflows = next(c for c in count(1)
                     if _largest_group_index(c, (c + 1) * (c + 2) // 2, 1) > INT16_MAX)
    assert overflows == 39
    assert MAX_SERVERS < overflows, "c >= 39 needs a wider group index in _group_indices"


def _check_walk_tables(c, table):
    """Every walk table against the per-slot rule u += table[b, min(u, c)], one slot at a time.

    Covers every k = 1..L, every combination of k buckets, and every start
    0..cL+3, past the cap cL where all starts share one table entry.
    """
    walks = geo_sim._walk_tables(c, table)
    group, radix = len(walks) - 1, len(table)
    span = c * group + 1
    for k, (delta, top, area) in enumerate(walks[1:], 1):
        combos, starts = np.meshgrid(np.arange(radix**k), np.arange(span + 3), indexing="ij")
        u = starts.copy()
        high = starts.copy()
        path = np.zeros_like(starts)
        for i in range(k):
            u = u + table[combos // radix**i % radix, np.minimum(u, c)]
            high = np.maximum(high, u)
            path += u - starts
        at = combos * span + np.minimum(starts, span - 1)
        assert np.array_equal(delta[at], u - starts)
        assert np.array_equal(top[at], high - starts)
        assert np.array_equal(area[at], path)
        assert len(delta) == len(top) == len(area) == radix**k * span
    return group


@pytest.mark.parametrize("c,group", [(2, 4), (3, 3)])
def test_walk_tables_match_per_slot_rule(c, group):
    _, table = geo_sim._decode_table(PARAMS[c])
    assert _check_walk_tables(c, table) == group


@settings(max_examples=100, deadline=None)
@given(params=_decode_params())
def test_walk_tables_match_per_slot_rule_everywhere(params):
    c = params.c
    cuts, table = geo_sim._decode_table(params)
    assert len(cuts) <= (c + 1) * (c + 2) // 2  # the bound test_group_indices_fit_int16 takes
    group = _check_walk_tables(c, table)
    assert group >= 1
    largest = _largest_group_index(c, len(cuts), group)
    assert largest <= INT16_MAX < _largest_group_index(c, len(cuts), group + 1)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [{"c": c, "n": n, "reps": reps, "seed": seed,
              "samples": _reference_samples(c, n, reps, seed)}
             for c, n, reps, seed in _cases()]
    GOLDEN.write_text(json.dumps({"cases": cases}, separators=(",", ":")) + "\n")
    cases = [{"c": c, "n": n, "batches": batches, "seed": seed,
              "output": _reference_scalar_output(c, n, batches, seed)}
             for c, n, batches, seed in _scalar_cases()]
    SCALAR_GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
