"""Deterministic RNG streams.

Every stochastic routine takes an integer seed and derives independent
substreams with ``numpy.random.SeedSequence`` spawn keys. A stream is
keyed by ``(seed, *indices)``, so the bits a computation sees depend on
its key alone, not on evaluation order.

Trials are keyed by block (RNG contract version 2). The trials of an
experiment are split into blocks of ``TRIAL_BLOCK``; ball i of block b
draws the centres of all the block's trials in one sampler call from
the stream ``(seed, b, i)``, and trial t takes row ``t % TRIAL_BLOCK``
of block ``t // TRIAL_BLOCK``. A full block is always drawn, the last
one too, so trial t sees the same centres whatever the trial count,
worker count or chunking. ``hull-bridge`` is not blocked: it draws the
N points of trial t under density a or b from ``stream(seed, t, side)``,
side 0 or 1. Version 1 keyed one stream per centre,
``(seed, t, i)``; result records carry ``RNG_CONTRACT`` because a new
contract changes every sampled result for the same seed.
"""

from __future__ import annotations

import numpy as np

from .geometry import _sq_dist

# Version of the seed-to-sample mapping written into every result
# record; bump it whenever the same seed stops giving the same samples.
RNG_CONTRACT = 2

# Trials per block of the version-2 contract (changing it changes the
# contract).
TRIAL_BLOCK = 256


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Return the generator for substream ``(seed, *indices)``."""
    key = (int(seed),) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(key))


def uniform_in_ball(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Sample ``size`` points uniformly in the unit ball of R^n.

    Gaussian direction times a Beta-distributed radius; exact, no
    rejection. Everything is computed in place: the square root of the
    squared norms, the power of the uniform radii (``**=``, so n = 2
    takes numpy's square-root path as ``**`` does) and the scaling of
    the Gaussian draw one coordinate column at a time,
    g_j = g_j / |g| * radius. The bits are those of the row form
    ``g / norms[:, None] * radii[:, None]``, without its temporaries.
    """
    g = rng.standard_normal((size, n))
    norms = _sq_dist(g, 0.0)
    np.sqrt(norms, out=norms)
    # Guard the (measure-zero) all-zero draw.
    norms[norms == 0.0] = 1.0
    radii = rng.random(size)
    radii **= 1.0 / n
    for j in range(n):
        col = g[:, j]
        col /= norms
        col *= radii
    return g


def uniform_on_sphere(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Sample ``size`` unit vectors uniformly on S^{n-1}: a Gaussian
    draw divided in place, one coordinate column at a time, by its row
    norms."""
    g = rng.standard_normal((size, n))
    norms = np.sqrt(_sq_dist(g, 0.0))
    norms[norms == 0.0] = 1.0
    for j in range(n):
        g[:, j] /= norms
    return g
