"""Deterministic randomness for chains and couplings.

All randomness in the package flows through counter-based Philox streams so
that every chain, update, and benchmark is reproducible from (seed, stream).

Conventions, relied on throughout:

* ``make_stream(seed, stream)`` keys a Philox generator with the two 64-bit
  words (seed, stream); ``rekey(rng, seed, stream)`` turns an existing one
  into the same stream, which is cheaper than building a new generator.
* Every random decision consumes exactly one ``Generator.random()`` float64
  uniform. Categorical draws use inverse-CDF over ascending spin index.
* A Gibbs step consumes its uniforms in the order: vertex pick, spin draw.

Stream ids are one registry of disjoint 64-bit ranges:

* ``[0, 2**32)``: free for direct ``run_chain`` callers (its default is 0).
* ``[2**32, 2**33)``: pool chains. ``new_chain_set`` gives chain i stream
  ``BASELINE_STREAM_OFFSET + i``; chains added on a resize take the next
  unused ids.
* ``[2**33, 2**33 + 2**62)``: replay draws, ``update_stream(epoch, chain)``.
* ``[2**63, 2**63 + 2**61)``: baselines regenerated by ``dyngibbs bench``.
* ``[2**63 + 2**61, 2**63 + 2**62)`` and ``[2**63 + 2**62, 2**64)``: the
  updated and the fresh chains of ``dyngibbs verify``'s law check. Its
  scenario k takes the 15 000 ids from offset + 15 000 k.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "make_stream",
    "rekey",
    "uniform_index",
    "categorical",
    "geometric_skip",
    "BASELINE_STREAM_OFFSET",
    "UPDATE_STREAM_OFFSET",
    "BENCH_STREAM_OFFSET",
    "VERIFY_UPDATE_STREAM_OFFSET",
    "VERIFY_FRESH_STREAM_OFFSET",
    "update_stream",
]

BASELINE_STREAM_OFFSET = 1 << 32

UPDATE_STREAM_OFFSET = 1 << 33
UPDATE_EPOCHS = 1 << 30
UPDATE_CHAINS = 1 << 32

BENCH_STREAM_OFFSET = 1 << 63
VERIFY_UPDATE_STREAM_OFFSET = (1 << 63) + (1 << 61)
VERIFY_FRESH_STREAM_OFFSET = (1 << 63) + (1 << 62)


def update_stream(epoch: int, chain: int) -> int:
    """Stream id for the replay randomness of one chain in one update epoch.

    Raises ValueError unless 0 <= epoch < 2**30 and 0 <= chain < 2**32, the
    bounds that keep every id inside the replay range and distinct.
    """
    if not (0 <= epoch < UPDATE_EPOCHS and 0 <= chain < UPDATE_CHAINS):
        raise ValueError(
            f"update_stream({epoch}, {chain}) outside 0 <= epoch < 2**30, "
            f"0 <= chain < 2**32"
        )
    return UPDATE_STREAM_OFFSET + (epoch << 32) + chain

_MASK64 = (1 << 64) - 1


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the Philox generator for (seed, stream).

    Streams with distinct (seed, stream) keys are statistically independent;
    the same key always reproduces the same draw sequence.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng: np.random.Generator, seed: int, stream: int = 0) -> np.random.Generator:
    """Reset a Philox generator to the start of (seed, stream), in place.

    Whatever rng drew before, it then draws exactly what
    ``make_stream(seed, stream)`` would: counter 0, no buffered words.
    Returns rng.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def uniform_index(n: int, u: float) -> int:
    """Map one uniform in [0,1) to an index in 0..n-1."""
    i = int(u * n)
    return n - 1 if i >= n else i


def categorical(weights, u: float) -> int:
    """Inverse-CDF draw over ascending index from nonnegative weights.

    ``weights`` need not be normalized; the caller supplies one uniform.
    Raises ValueError if the total mass is not positive.
    """
    total = 0.0
    for w in weights:
        total += w
    if not total > 0.0:
        raise ValueError("categorical draw from zero total mass")
    target = u * total
    acc = 0.0
    last = 0
    for c, w in enumerate(weights):
        if w > 0.0:
            acc += w
            last = c
            if acc > target:
                return c
    return last  # float round-off at the tail


def geometric_skip(p: float, u: float) -> int:
    """Number of Bernoulli(p) trials up to and including the first success.

    Inverse-CDF of the geometric law on {1, 2, ...}; p >= 1 returns 1.
    """
    if p >= 1.0:
        return 1
    # ceil(log(1-u) / log(1-p)) via log1p for stability near p ~ 0
    k = math.ceil(math.log1p(-u) / math.log1p(-p))
    return 1 if k < 1 else k
