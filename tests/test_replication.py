"""Replication generators: the batched SeedSequence hash and the master-seed range.

`substream_generators` re-implements numpy's SeedSequence hash over a whole
batch of seeds; numpy's own `SeedSequence` and `PCG64(seed)` are the
references here, and `substream_generator` is the per-replication one. The
module turns RuntimeWarnings into errors, so a scalar uint32 overflow in the
hash (which numpy only warns about) fails it. Other warnings stay warnings:
hypothesis imports libcst to report a failing example, and libcst's import
warns, which would abort the session instead of reporting the failure.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from queuemax import (GeoSimConfig, MMSimConfig, RangeError, replicate_max_length,
                      replicate_wait_maxima, simulate_max_length, simulate_wait_detail,
                      substream_generator, substream_seed, time_average_queue_length,
                      validate_geo_params, validate_mm_params)
from queuemax.replication import _HashedSeed, seed_sequence_words, substream_generators

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = st.integers(0, 2**64 - 1)
EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
GEO = validate_geo_params(0.2, 0.3, 2)
MM = validate_mm_params(0.2, 0.3, 2)


def with_edges(test):
    """Run a property on one seed at every edge of the 32- and 64-bit ranges too."""
    for seed in EDGES:
        test = example(seed=seed)(test)
    return test


@given(seed=SEEDS)
@with_edges
@settings(max_examples=300, deadline=None)
def test_words_equal_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    got = seed_sequence_words([seed])
    assert got.dtype == np.uint64 and got.shape == (1, 4)
    np.testing.assert_array_equal(got[0], want)


@given(seeds=st.lists(SEEDS, max_size=70))
@settings(max_examples=60, deadline=None)
def test_batch_rows_equal_seed_sequence(seeds):
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    np.testing.assert_array_equal(seed_sequence_words(seeds), np.reshape(want, (len(seeds), 4)))


@given(seed=SEEDS)
@with_edges
@settings(max_examples=100, deadline=None)
def test_generator_draws_equal_pcg64(seed):
    (gen,) = substream_generators([seed])
    want = np.random.Generator(np.random.PCG64(seed))
    np.testing.assert_array_equal(gen.random(1000), want.random(1000))
    row, want_row = np.empty(512), np.empty(512)
    for _ in range(3):
        gen.random(out=row)
        want.random(out=want_row)
        np.testing.assert_array_equal(row, want_row)


def test_campaign_generators_equal_substream_generator():
    master = 2**64 - 1
    seeds = [substream_seed(master, i) for i in range(130)]
    gens = list(substream_generators(seeds))
    assert len(gens) == 130
    for i, gen in enumerate(gens):
        np.testing.assert_array_equal(gen.random(64), substream_generator(master, i).random(64))
    assert list(substream_generators([])) == []


@pytest.mark.parametrize("request_", [(4,), (4, np.uint32), (8, np.uint32), (2, np.uint64),
                                      (8, np.uint64), (4, np.int64)])
def test_stand_in_answers_only_pcg64s_request(request_):
    words = seed_sequence_words([7])[0]
    stand_in = _HashedSeed(words)
    with pytest.raises(ValueError):
        stand_in.generate_state(*request_)
    np.testing.assert_array_equal(stand_in.generate_state(4, np.uint64),
                                  np.random.SeedSequence(7).generate_state(4, np.uint64))


def test_substream_seed_refuses_a_negative_index():
    with pytest.raises(ValueError, match="replication index must be nonnegative"):
        substream_seed(7, -1)


@pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**65 - 5])
def test_configs_refuse_seeds_outside_64_bits(seed):
    with pytest.raises(RangeError, match="master seed"):
        GeoSimConfig(GEO, 10, 2, seed)
    with pytest.raises(RangeError, match="master seed"):
        MMSimConfig(MM, 10.0, 2, seed)


@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**70])
def test_single_runs_refuse_seeds_outside_64_bits(seed):
    with pytest.raises(RangeError, match="master seed"):
        simulate_max_length(GEO, 50, seed)
    with pytest.raises(RangeError, match="master seed"):
        time_average_queue_length(GEO, 200, seed, batches=10)
    with pytest.raises(RangeError, match="master seed"):
        simulate_wait_detail(MM, 10.0, seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_single_runs_accept_both_seed_ends(seed):
    assert 0 <= simulate_max_length(GEO, 50, seed) <= 50
    mean, se = time_average_queue_length(GEO, 200, seed, batches=10)
    assert mean >= 0.0 and se >= 0.0
    detail = simulate_wait_detail(MM, 10.0, seed)
    assert detail.wait_sys.size == detail.arrivals.size


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_campaigns_run_at_both_seed_ends(seed):
    # each replication equals a single run on numpy's own PCG64(substream seed)
    seeds = [substream_seed(seed, i) for i in range(4)]
    geo = replicate_max_length(GeoSimConfig(GEO, 200, 4, seed))
    assert geo.seeds.tolist() == seeds
    assert geo.samples.tolist() == [simulate_max_length(GEO, 200, s) for s in seeds]
    mm = replicate_wait_maxima(MMSimConfig(MM, 200.0, 4, seed))
    assert mm.max_sys.seeds.tolist() == seeds
    details = [simulate_wait_detail(MM, 200.0, s) for s in seeds]
    assert mm.customers.tolist() == [d.arrivals.size for d in details]
    assert mm.max_sys.samples.tolist() == [d.wait_sys.max() if d.arrivals.size else 0.0
                                           for d in details]


@pytest.mark.parametrize("run", [
    pytest.param(lambda: replicate_max_length(GeoSimConfig(GEO, 2.5, 4, 1)), id="geo-n"),
    pytest.param(lambda: replicate_max_length(GeoSimConfig(GEO, 100, 2.5, 1)), id="geo-reps"),
    pytest.param(lambda: replicate_max_length(GeoSimConfig(GEO, 100, 4, 1.5)), id="geo-seed"),
    pytest.param(lambda: simulate_max_length(GEO, 2.5, 1), id="max-n"),
    pytest.param(lambda: simulate_max_length(GEO, 100, 1.5), id="max-seed"),
    pytest.param(lambda: time_average_queue_length(GEO, 1000.5, 1), id="average-n"),
    pytest.param(lambda: time_average_queue_length(GEO, 1000, 1, batches=2.5),
                 id="average-batches"),
    pytest.param(lambda: time_average_queue_length(GEO, 1000, 1.5), id="average-seed"),
    pytest.param(lambda: replicate_wait_maxima(MMSimConfig(MM, 100.0, 2.5, 1)), id="mm-reps"),
    pytest.param(lambda: replicate_wait_maxima(MMSimConfig(MM, 100.0, 4, 1.5)), id="mm-seed"),
    pytest.param(lambda: simulate_wait_detail(MM, 100.0, 1.5), id="detail-seed"),
])
def test_non_integer_counts_and_seeds_are_range_errors(run):
    with pytest.raises(RangeError, match="must be an integer"):
        run()


def test_numpy_integers_run_as_python_integers():
    n, reps, seed, batches = np.int64(200), np.int32(4), np.uint64(2**64 - 1), np.int16(10)
    assert (replicate_max_length(GeoSimConfig(GEO, n, reps, seed)).samples.tolist()
            == replicate_max_length(GeoSimConfig(GEO, 200, 4, 2**64 - 1)).samples.tolist())
    assert simulate_max_length(GEO, n, seed) == simulate_max_length(GEO, 200, 2**64 - 1)
    assert (time_average_queue_length(GEO, n, seed, batches)
            == time_average_queue_length(GEO, 200, 2**64 - 1, 10))
    assert (replicate_wait_maxima(MMSimConfig(MM, 200.0, reps, seed)).customers.tolist()
            == replicate_wait_maxima(MMSimConfig(MM, 200.0, 4, 2**64 - 1)).customers.tolist())
    assert (simulate_wait_detail(MM, 200.0, seed).arrivals.size
            == simulate_wait_detail(MM, 200.0, 2**64 - 1).arrivals.size)
