"""Seeded random number generation.

All stochastic code in the package draws from numpy's PCG64 generator and
takes either an integer seed or an already-constructed ``numpy.random.Generator``.
Derived streams (one per dataset sample, per GA run, ...) are built from a
``SeedSequence`` keyed on (seed, *stream keys), which is stable across
platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np


def check_seed(seed):
    """``seed``; below 0 a ValueError names it, where numpy's SeedSequence would not."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def make_rng(seed) -> np.random.Generator:
    """Return a PCG64 generator; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(check_seed(seed)))  # PCG64 seeds a SeedSequence


def derived_rng(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic child stream for (seed, keys), independent across keys."""
    return np.random.Generator(np.random.PCG64([int(check_seed(seed)), *map(int, keys)]))
