"""Reproducible replication plumbing.

Replication i always draws from PCG64 seeded with splitmix64(master, i), so a
run is fully determined by its master seed, an integer in [0, 2^64), and
replication results do not depend on scheduling or chunking. Run manifests
name the generator and this rule from the CLI's own table (`cli.PRNG`).

A campaign is seeded in one pass. `substream_seed` takes an array of
replication indices and runs SplitMix64 over all of them in wrapping uint64
arithmetic. `substream_generators` then runs numpy's SeedSequence hash (a
pool of 4 words, `hashmix` and `mix` with numpy's constants) over all seeds
at once as uint32 array arithmetic, so its generators are bit-identical to
PCG64(splitmix64(master, i)) without one SeedSequence object each.
`substream_generator` keeps numpy's own SeedSequence as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from .errors import RangeError
from .stats import ECDF, summarize

_MASK64, _MASK32 = (1 << 64) - 1, 0xFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def substream_seed(master_seed: int, index):
    """64-bit seed for replication `index`, via the SplitMix64 output function.

    splitmix64 state k is master + (index+1)*gamma mod 2^64; the finalizer is
    the published xor-shift/multiply chain. Order-free by construction. An
    array of indices gives a uint64 array of seeds, a scalar index an int.
    """
    indices = np.asarray(index)
    if np.any(indices < 0):
        raise ValueError(f"replication index must be nonnegative, got {indices.min()}")
    # in place on a 1-d array: numpy wraps uint64 arrays silently but warns on scalars
    z = np.array(indices, dtype=np.uint64, ndmin=1)
    z += np.uint64(1)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(int(master_seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return int(z[0]) if indices.ndim == 0 else z.reshape(indices.shape)


def substream_generator(master_seed: int, index: int) -> np.random.Generator:
    """Independent PCG64 stream for one replication."""
    return np.random.Generator(np.random.PCG64(substream_seed(master_seed, index)))


def check_campaign(seed: int, **counts) -> None:
    """Raise RangeError unless `seed` is a master seed and each count an integer >= 1.

    A master seed is an integer in [0, 2^64), where distinct seeds give distinct
    runs. numpy integers count as integers, integral floats do not.
    """
    for name, value in dict(counts, seed=seed).items():
        if not isinstance(value, (int, np.integer)):
            raise RangeError(f"{name} must be an integer, got {value!r}")
    if not 0 <= seed <= _MASK64:
        raise RangeError(f"master seed must lie in [0, 2**64), got {seed}")
    for name, count in counts.items():
        if count < 1:
            raise RangeError(f"{name} must be at least 1, got {count}")


def _hasher(const: int, mult: int):
    """numpy's SeedSequence hash step on uint32 arrays; the constant advances per call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def seed_sequence_words(seeds) -> np.ndarray:
    """Row i is SeedSequence(seeds[i]).generate_state(4, np.uint64), seeds in [0, 2^64).

    The entropy of s is its 32-bit words, low first, one word below 2^32; a
    pool of 4 hashes a missing word as 0, so the high word serves both cases.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    hashmix, zero = _hasher(0x43B0D7E5, 0x931E8875), np.zeros(seeds.shape, dtype=np.uint32)
    pool = [hashmix(word) for word in (seeds.astype(np.uint32),
                                       (seeds >> np.uint64(32)).astype(np.uint32), zero, zero)]
    for src, dst in permutations(range(4), 2):
        mixed = pool[dst] * np.uint32(0xCA01F9DD) - hashmix(pool[src]) * np.uint32(0x4973F715)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    words = np.stack([output(pool[i % 4]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)  # numpy's word order


@cache
def _hashed_seed_type():
    """The stand-in for SeedSequence(s) in PCG64(s), whose one request is 4 uint64 words.

    Built on first use, not at import: loading numpy.random costs every CLI
    launch about 14 ms. A true subclass of ISeedSequence passes PCG64's
    isinstance check faster than a registered one.
    """
    class HashedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only (4, uint64) is precomputed, got ({n_words}, {dtype})")
            return self._words
    return HashedSeed


def substream_generators(seeds):
    """Lazily, np.random.Generator(np.random.PCG64(s)) for each s in seeds, from one batched hash."""
    hashed_seed = _hashed_seed_type()
    return (np.random.Generator(np.random.PCG64(hashed_seed(words)))
            for words in seed_sequence_words(seeds))


@dataclass(frozen=True)
class SimResult:
    """Replicated samples with their seeds and the usual aggregates."""

    samples: np.ndarray
    seeds: np.ndarray
    mean: float
    se: float
    ecdf: ECDF


def make_sim_result(samples, seeds) -> SimResult:
    summary = summarize(samples)
    samples = np.asarray(samples)
    seeds = np.asarray(seeds, dtype=np.uint64)
    samples.flags.writeable = False
    seeds.flags.writeable = False
    return SimResult(samples, seeds, summary.mean, summary.se, summary.ecdf)
