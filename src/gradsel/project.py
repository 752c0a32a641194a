"""Gaussian random projection between parameter space (p) and sketch space (d).

The p x d matrix P has i.i.d. N(0, 1/d) entries. Its row blocks come from a
counter-based Philox stream keyed by (seed, block index), so the same seed
gives the same P on every host. P is one read-only array; it takes p * d * 8
bytes (3.1 MB for the default Gaussian model, p=3,841, d=100; 31 MB for the
noisy-addition model, p=38,706). The gradient cache holds the P its rows were
projected by, and load_cache rebuilds it from the seed in the cache header.
Callers apply it one way: G @ P projects rows of gradients, P @ x lifts a
d-vector back to parameter space.
"""

from __future__ import annotations

import numpy as np

GENERATOR_VERSION = 1

_BLOCK_ROWS = 8192


def gaussian_projection(p: int, d: int, seed: int) -> np.ndarray:
    """The read-only (p, d) projection for seed: rows [i*B, (i+1)*B) come
    from the Philox stream keyed by (seed, (GENERATOR_VERSION, i))."""
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive")
    P = np.empty((p, d))
    for i, lo in enumerate(range(0, p, _BLOCK_ROWS)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(GENERATOR_VERSION, i))
        gen = np.random.Generator(np.random.Philox(ss))
        P[lo : lo + _BLOCK_ROWS] = gen.standard_normal((min(_BLOCK_ROWS, p - lo), d)) / np.sqrt(d)
    P.flags.writeable = False
    return P
