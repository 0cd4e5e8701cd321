"""Counter-based random streams.

All randomness in the package flows from a single 64-bit seed through
Philox streams keyed by (seed, index), one index per consumer and, in a
session, one per variate kind (``SUBSTREAM``; Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  A session draws each kind
as one array over all its rounds:

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
``STREAM_LAYOUT`` numbers this layout; sessions print it.
"""

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


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the deterministic generator for (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
