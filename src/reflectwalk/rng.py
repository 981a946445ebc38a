"""Deterministic seeding utilities.

Every randomized entry point in the package takes a 64-bit master seed (or an
already-constructed ``numpy.random.Generator``).  Replica streams are derived
from the master seed with a fixed splitmix64 step, so a single recorded seed
reproduces a whole parallel experiment regardless of chunking or scheduling.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given state (both taken mod 2^64)."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(master_seed: int, index: int) -> int:
    """Seed for stream ``index`` derived from ``master_seed``.

    Defined as splitmix64 applied to ``master_seed + (index+1) * GOLDEN``;
    distinct indices give distinct, well-mixed seeds.
    """
    return splitmix64((master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64)


def make_rng(seed) -> np.random.Generator:
    """A PCG64 generator for ``seed``; passes through existing Generators."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))

