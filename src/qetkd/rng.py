"""Counter-based random streams.

All randomness in the package flows from a single 64-bit seed through
Philox streams keyed by (seed, index), one index per consumer (sessions 0,
attacks 1-3, resource check 4).  Draws within a stream are sequential: a
session takes every per-round variate from stream 0 in round order, so a
change in what one round draws moves every later round.
"""

import numpy as np


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the deterministic generator for (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
