"""The sampled maxima of the discrete-queue simulator, pinned bit for bit.

`data/geo_stream_golden.json` holds `replicate_max_length` samples recorded
with the slot-by-slot kernel that preceded the time-vectorized one. Any
change to the kernel, the substream derivation or the uniform stream shows
here, even when the scalar and vectorized paths drift together. A deliberate stream change
must be versioned in the run manifest; regenerate the file then with
`PYTHONPATH=src python tests/test_geo_stream.py`.

The exact-recursion test checks `_run_many` against the plain-Python
per-slot reference in `oracles.py` across block and sub-chunk edges.
"""
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import queuemax.geo_sim as geo_sim
from queuemax import GeoSimConfig, replicate_max_length, substream_generator, validate_geo_params

from oracles import geo_max_by_recursion

GOLDEN = Path(__file__).parent / "data" / "geo_stream_golden.json"
PARAMS = {1: validate_geo_params(1 / 3, 1 / 2, 1),
          2: validate_geo_params(0.3, 0.25, 2),
          3: validate_geo_params(1 / 3, 1 / 6, 3)}
HORIZONS = (1, 1500, 2500)
REP_COUNTS = (1, 65, 130)
BLOCK, CHUNK = geo_sim.BLOCK, geo_sim.DRAW_CHUNK


def _cases():
    for c in PARAMS:
        for n in HORIZONS:
            for reps in REP_COUNTS:
                yield c, n, reps, 1000 * c + 10 * HORIZONS.index(n) + REP_COUNTS.index(reps)


def _samples(c, n, reps, seed):
    return replicate_max_length(GeoSimConfig(PARAMS[c], n, reps, seed)).samples.tolist()


def _golden():
    return {(case["c"], case["n"], case["reps"], case["seed"]): case["samples"]
            for case in json.loads(GOLDEN.read_text())["cases"]}


@pytest.mark.parametrize("c,n,reps,seed", list(_cases()))
def test_samples_match_recorded_stream(c, n, reps, seed):
    assert _samples(c, n, reps, seed) == _golden()[c, n, reps, seed]


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99), r=st.floats(0.01, 0.99), c=st.sampled_from([1, 2, 3]),
       n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3000]),
       reps=st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
       master=st.integers(0, 2**63 - 1))
def test_vector_kernel_matches_exact_recursion(p, r, c, n, reps, master):
    assume(p < c * r)
    params = validate_geo_params(p, r, c)
    gens = [substream_generator(master, i) for i in range(reps)]
    got = geo_sim._run_many(params, n, gens).tolist()
    want = [geo_max_by_recursion(p, r, c, n, substream_generator(master, i))
            for i in range(reps)]
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [{"c": c, "n": n, "reps": reps, "seed": seed, "samples": _samples(c, n, reps, seed)}
             for c, n, reps, seed in _cases()]
    GOLDEN.write_text(json.dumps({"cases": cases}, separators=(",", ":")) + "\n")
