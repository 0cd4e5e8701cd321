"""Counter-based random streams.

All randomness in the package flows from a single 64-bit seed through
Philox streams keyed by (seed, index), one index per consumer and, in a
session, one per variate kind (``SUBSTREAM``; Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  A session draws each kind
as one sequence over all its rounds:

    index  consumer
    0      protocol.run_rounds (outcome bits)
    1-3    attacks: independent, postselect, split
    4      resource-state check
    5      session basis choice (two-random policy)
    6      session haar axes, resampled draws following in order
    7      session logical bits
    8      session outcomes
    9+j    session classical flips of receiver j (0-based)

A round's draws therefore never shift another kind's stream, and the
number of haar resamples moves nothing but the haar stream.
``STREAM_LAYOUT`` numbers this layout; sessions print it.  ``fair_bits``
and ``uniform_chunks`` draw a kind ``DRAW_CHUNK`` rounds at a time: the
same variates as one array over every round, with no such array.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

SUBSTREAM = {
    "rounds": 0,
    "attack_independent": 1,
    "attack_postselect": 2,
    "attack_split": 3,
    "resource_check": 4,
    "basis": 5,
    "haar": 6,
    "logical": 7,
    "outcome": 8,
    "flip": 9,
}
STREAM_LAYOUT = 2
DRAW_CHUNK = 8192  # variates drawn at a time


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the deterministic generator for (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fair_bits(gen: np.random.Generator, n: int) -> np.ndarray:
    """``gen.integers(0, 2, n)`` as uint8, with no n-long int64 array; the
    stream is left where the one draw would leave it."""
    bits = np.empty(n, dtype=np.uint8)
    for start in range(0, n, DRAW_CHUNK):
        bits[start:start + DRAW_CHUNK] = gen.integers(0, 2, min(DRAW_CHUNK, n - start))
    return bits


def uniform_chunks(gen: np.random.Generator, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """``gen.random(n)`` as (start, draws) pieces of at most ``DRAW_CHUNK``,
    each written over one buffer: a fresh n-long float64 array cost more in
    page faults than the draws themselves.  A piece is valid until the next."""
    buf = np.empty(min(n, DRAW_CHUNK))
    for start in range(0, n, DRAW_CHUNK):
        draws = buf[:n - start]
        gen.random(out=draws)
        yield start, draws
