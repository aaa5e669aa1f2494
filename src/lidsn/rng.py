"""Deterministic random streams.

Every stochastic choice in the package (weight init, shuffling, dropout,
synthetic data) draws from an RngStream. Streams are keyed by
(seed, stream_id) on top of the Philox4x32-10 counter-based bit generator,
whose round constants are fixed by its published definition, so a given key
reproduces the same value sequence on any platform. Floats come from the
standard 53-bit mantissa mapping.
"""
from __future__ import annotations

import numpy as np


class RngStream:
    """Counter-based random stream addressed by (seed, stream id)."""

    def __init__(self, seed: int, stream: int):
        if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
            raise ValueError(f"seed and stream must lie in [0, 2**64), got {seed} and {stream}")
        # a uint64 key is exact up to 2**64; a list of ints above 2**63 goes through float64
        self._gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], np.uint64)))

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, mean: float, std: float, shape=()) -> np.ndarray:
        return mean + std * self._gen.standard_normal(size=shape)

    def bernoulli(self, p_true: float, shape) -> np.ndarray:
        """0/1 float mask with P(1) = p_true."""
        return (self._gen.random(size=shape) < p_true).astype(np.float64)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
