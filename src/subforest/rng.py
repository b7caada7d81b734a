"""Deterministic stream derivation on top of the Philox counter-based generator.

Every source of randomness in the package is a Philox-4x64 stream whose
128-bit key is derived from a 64-bit master seed plus an integer path, e.g.
``stream(seed, TREE, b)`` for tree ``b``. Streams with different paths are
statistically independent, and a stream's output depends only on
``(seed, path)`` -- never on thread scheduling or call order -- which is what
makes parallel training reproducible.

Key derivation uses the SplitMix64 finalizer (Steele, Lea & Flood 2014), a
bijective 64-bit mixer, folded over the path elements.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Fixed path tags so call sites cannot collide by accident.
TREE = 0x01
SUBSAMPLE = 0x02
PARTITION = 0x03
DATASET = 0x04
SPLIT = 0x05
TEST_POINTS = 0x06
REPLICATE = 0x07


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mixing of a 64-bit word."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(seed: int, *path: int) -> np.ndarray:
    """128-bit Philox key for the stream at ``(seed, *path)``."""
    h = mix64(seed & _MASK64)
    for p in path:
        h = mix64(h ^ (p & _MASK64))
    lo = mix64(h ^ 0xD6E8FEB86659FD93)
    return np.array([h, lo], dtype=np.uint64)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for the given seed and derivation path."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def rekey(gen: np.random.Generator, seed: int, *path: int) -> np.random.Generator:
    """Restart ``gen``, a Philox generator, at the first draw of ``stream(seed, *path)``.

    The next draws equal a fresh ``stream(seed, *path)``'s: a new generator
    has the key, a zero counter and an empty buffer. Constructing
    ``np.random.Philox(key=...)`` also seeds a ``SeedSequence`` from OS
    entropy that the key then overrides, which costs about two thirds of a
    fresh stream; callers that need one stream after another reuse one
    generator instead.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": derive_key(seed, *path)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def stable_hash64(data: bytes) -> int:
    """Platform-stable 64-bit hash (BLAKE2b digest prefix)."""
    import hashlib  # loads OpenSSL; only the oracle's learners hash

    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
