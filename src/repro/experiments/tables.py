"""Shared table construction for the experiment harness.

Builds the algorithm-under-test instances with consistent seeds and, for
HD hashing, a codebook cache so sweeps over server counts do not pay the
circular-basis construction repeatedly (the basis depends only on
(dim, codebook size, family seed), exactly like the pristine/corrupted
replica pair must).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..hashfn import HashFamily
from ..hashing import make_table
from ..hdc.basis import BasisSet, circular_basis

__all__ = ["TableBuilder"]


class TableBuilder:
    """Registry-backed factory with shared HD codebooks.

    Algorithms are selected by registry name via
    :func:`repro.hashing.make_table`; the builder only adds the
    experiment-specific defaults (seeds, consistent-hashing backends,
    and the cached circular codebook reused across server-count sweeps).
    """

    def __init__(
        self,
        seed: int = 0,
        hd_dim: int = 10_000,
        hd_codebook_size: int = 4_096,
        consistent_replicas: int = 1,
        consistent_search: str = "count",
    ):
        self.seed = seed
        self.hd_dim = hd_dim
        self.hd_codebook_size = hd_codebook_size
        self.consistent_replicas = consistent_replicas
        self.consistent_search = consistent_search
        self._codebooks: Dict[Tuple[int, int, int], BasisSet] = {}

    def codebook(self) -> BasisSet:
        """The (cached) circular codebook HD tables share."""
        family = HashFamily(self.seed).derive("codebook")
        key = (self.hd_dim, self.hd_codebook_size, family.seed)
        if key not in self._codebooks:
            rng = np.random.default_rng(family.seed)
            self._codebooks[key] = circular_basis(
                self.hd_codebook_size, self.hd_dim, rng
            )
        return self._codebooks[key]

    def build(self, algorithm: str):
        """A fresh table for ``algorithm`` with this builder's seeds.

        Any registered algorithm name is accepted; the paper's four get
        the builder's tuned defaults.
        """
        if algorithm == "consistent":
            return make_table(
                "consistent",
                seed=self.seed,
                replicas=self.consistent_replicas,
                search=self.consistent_search,
            )
        if algorithm == "hd":
            return make_table("hd", seed=self.seed, codebook=self.codebook())
        return make_table(algorithm, seed=self.seed)

    def build_populated(self, algorithm: str, n_servers: int):
        """A fresh table with ``n_servers`` servers already joined."""
        table = self.build(algorithm)
        for index in range(n_servers):
            table.join(index)
        return table
