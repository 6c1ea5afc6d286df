"""Periodic-data encoding on circular-hypervectors (Section 6 future work).

The paper observes that circular-hypervectors give HDC a representation
for periodic information -- seasons, hours of a day, days of a week,
headings, hue angles -- that level-hypervectors cannot provide because of
their endpoint discontinuity.  This module realises that idea: a
:class:`PeriodicEncoder` quantises a periodic quantity onto the
hyperdimensional circle and supports decoding by nearest-prototype
inference, including *across the wrap-around point*.

``examples/periodic_encoding.py`` demonstrates it on hour-of-day data.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSet, circular_basis
from .item_memory import ItemMemory
from .operations import bundle
from .similarity import cosine_similarity

__all__ = ["PeriodicEncoder", "circular_distance"]


def circular_distance(a: float, b: float, period: float) -> float:
    """Shortest distance between two points on a circle of ``period``."""
    if period <= 0:
        raise ValueError("period must be positive")
    delta = abs(a - b) % period
    return min(delta, period - delta)


class PeriodicEncoder:
    """Encode values from a periodic domain ``[0, period)`` in hyperspace.

    Parameters
    ----------
    period:
        Length of the cycle (e.g. 24.0 for hours of a day).
    resolution:
        Number of circle nodes the period is quantised into.
    dim:
        Hypervector dimensionality.
    rng:
        Generator used to build the circular basis.
    """

    def __init__(
        self,
        period: float,
        resolution: int,
        dim: int,
        rng: np.random.Generator,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        self._period = float(period)
        self._basis = circular_basis(resolution, dim, rng)
        self._memory = ItemMemory(dim)
        for node, row in enumerate(self._basis.packed()):
            self._memory.add_packed(node, row)

    @property
    def period(self) -> float:
        """Length of the encoded cycle."""
        return self._period

    @property
    def resolution(self) -> int:
        """Number of quantisation nodes on the circle."""
        return self._basis.count

    @property
    def basis(self) -> BasisSet:
        """The underlying circular basis set."""
        return self._basis

    def node_of(self, value: float) -> int:
        """Circle node a value quantises to (nearest node, wrapping)."""
        fraction = (value % self._period) / self._period
        return int(round(fraction * self.resolution)) % self.resolution

    def value_of(self, node: int) -> float:
        """Centre value represented by a circle node."""
        return (node % self.resolution) * self._period / self.resolution

    def encode(self, value: float) -> np.ndarray:
        """Hypervector encoding of a periodic value."""
        return self._basis[self.node_of(value)]

    def decode(self, vector: np.ndarray) -> float:
        """Nearest-prototype decode of a (possibly noisy) hypervector."""
        __, node, __ = self._memory.query(vector)
        return self.value_of(node)

    def similarity(self, a: float, b: float) -> float:
        """Cosine similarity between the encodings of two values.

        Decays with :func:`circular_distance`, not with ``|a - b|`` --
        23:00 and 01:00 are *similar* hours.
        """
        return float(cosine_similarity(self.encode(a), self.encode(b)))

    def prototype(self, values) -> np.ndarray:
        """Bundle several values into one class prototype hypervector."""
        encodings = np.stack([self.encode(value) for value in values])
        return bundle(encodings)
