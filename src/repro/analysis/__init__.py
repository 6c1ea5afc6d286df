"""Analysis utilities: chi-squared uniformity, load summaries, and the
closed-form expectations the experiments are validated against."""

from .chi_squared import chi_squared_statistic, chi_squared_test, uniformity_chi2
from .loads import LoadSummary, remap_fraction, summarize_loads
from .ownership import imbalance_from_fractions, ownership_fractions
from .theory import (
    expected_codebook_collisions,
    expected_consistent_chi2,
    expected_corrupted_words,
    expected_hd_chi2,
    expected_rendezvous_chi2,
    expected_rendezvous_mismatch,
)

__all__ = [
    "LoadSummary",
    "chi_squared_statistic",
    "chi_squared_test",
    "expected_codebook_collisions",
    "expected_consistent_chi2",
    "expected_corrupted_words",
    "expected_hd_chi2",
    "expected_rendezvous_chi2",
    "expected_rendezvous_mismatch",
    "imbalance_from_fractions",
    "ownership_fractions",
    "remap_fraction",
    "summarize_loads",
    "uniformity_chi2",
]
