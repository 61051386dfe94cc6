"""Seed handling.

Every random draw in the package is produced by a counter-based generator
(Philox) keyed by an explicit 64-bit master seed plus an integer key path.
Two calls with the same (seed, path) yield identical streams; distinct paths
yield statistically independent streams.  Nothing ever touches global RNG
state, so experiments are reproducible bit-for-bit regardless of execution
order or process count.
"""

import numpy as np

__all__ = ["spawn_rng", "spawn_seeds"]

_MASK64 = (1 << 64) - 1


def _seed_sequence(seed, path):
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError(f"rng key path must be non-negative, got {key}")
    return np.random.SeedSequence(int(seed) & _MASK64, spawn_key=key)


def spawn_rng(seed, *path):
    """Return a Philox generator derived from ``seed`` and an integer key path.

    ``seed`` is reduced modulo 2**64; path components must be non-negative
    integers (cell index, trial index, probe index, ...).
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def spawn_seeds(seed, *path, count):
    """Return ``count`` 64-bit integer seeds derived from ``seed`` and an
    integer key path, under the same rules as ``spawn_rng``; each one seeds
    an independent draw (truth, ensemble, noise, ...)."""
    return [int(s) for s in _seed_sequence(seed, path).generate_state(count, np.uint64)]
