"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Property tests run the "dev" profile: enough examples to be meaningful,
# bounded so the full suite stays fast.
settings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dev")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for test randomness."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def request_words(rng) -> np.ndarray:
    """A reusable batch of pre-hashed request words."""
    return rng.integers(0, 2 ** 64, 2_000, dtype=np.uint64)


def populate(table, count: int, prefix: str = ""):
    """Join ``count`` servers named by index (optionally prefixed)."""
    for index in range(count):
        table.join("{}{}".format(prefix, index) if prefix else index)
    return table


class NumberLike:
    """A value ``sum()`` takes for a number but the store prices by its
    ``repr``: ``__radd__`` accepts an int, the ``repr`` is longer than
    8 characters, and equality is by value."""

    def __init__(self, units: int):
        self.units = units

    def __radd__(self, other):
        return other + self.units

    def __eq__(self, other):
        return isinstance(other, NumberLike) and other.units == self.units

    def __hash__(self):
        return hash(self.units)

    def __repr__(self):
        return "NumberLike({})".format(self.units)
