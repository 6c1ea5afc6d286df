"""Request-key distributions for the workload generator.

The efficiency and robustness experiments draw request identifiers
uniformly; the load-balancing example and the serving scenario also
exercise skewed traffic (Zipf-distributed popularity), which is the
regime where per-server load actually matters in web caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KeyDistribution", "UniformKeys", "ZipfKeys"]


class KeyDistribution:
    """Base class: samples application keys as ``uint64`` arrays."""

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` application keys."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformKeys(KeyDistribution):
    """Independent uniform keys over ``[0, space)``."""

    space: int = 1 << 62

    def __post_init__(self):
        if self.space <= 0:
            raise ValueError("key space must be positive")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.space, size=count, dtype=np.uint64)


@dataclass(frozen=True)
class ZipfKeys(KeyDistribution):
    """Zipf-popular keys: key rank ``i`` has probability ~ ``i^-exponent``.

    ``universe`` bounds the number of distinct keys; each rank is mapped
    through a fixed offset so different universes do not share key ids.
    """

    universe: int = 100_000
    exponent: float = 1.1
    offset: int = 0
    _cdf: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.universe <= 0:
            raise ValueError("universe must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        weights = np.arange(1, self.universe + 1, dtype=np.float64) ** (
            -self.exponent
        )
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.random(count)
        ranks = np.searchsorted(self._cdf, draws, side="right")
        return (ranks + self.offset).astype(np.uint64)
