"""Experiment E3 (Figure 4): average request-handling duration.

The paper's protocol: the generator sends ``k`` join requests, then
10,000 lookups; the emulator reports wall-time per request, for ``k``
from 2 to 2048 in powers of two.

Execution substrate (see DESIGN.md): the classical baselines run their
*scalar* per-request deployment path (modular index, ring binary search,
O(k) HRW loop) -- the per-request control flow they need on a CPU -- and
HD hashing runs its *batched* inference path in batches of 256, the
commodity-SIMD stand-in for the paper's GPU.  The expected shape is the
paper's: rendezvous linear and worst, consistent near-flat, HD tracking
consistent's profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..emulator import Emulator
from .base import ExperimentResult
from .tables import TableBuilder

__all__ = ["EfficiencyConfig", "run_efficiency"]

_POWERS_FULL: Tuple[int, ...] = tuple(2 ** p for p in range(1, 12))  # 2..2048


@dataclass(frozen=True)
class EfficiencyConfig:
    """Parameters of the Figure 4 reproduction."""

    server_counts: Sequence[int] = _POWERS_FULL
    n_requests: int = 10_000
    batch_size: int = 256
    algorithms: Sequence[str] = ("modular", "consistent", "rendezvous", "hd")
    seed: int = 0
    hd_dim: int = 10_000
    hd_codebook_size: int = 4_096

    @classmethod
    def fast(cls) -> "EfficiencyConfig":
        return cls(
            server_counts=(2, 8, 32),
            n_requests=512,
            hd_dim=2_048,
            hd_codebook_size=256,
        )

    @classmethod
    def bench(cls) -> "EfficiencyConfig":
        return cls(
            server_counts=tuple(2 ** p for p in range(1, 12, 2)),
            n_requests=2_000,
        )

    @classmethod
    def full(cls) -> "EfficiencyConfig":
        return cls()


def run_efficiency(config: EfficiencyConfig = EfficiencyConfig()) -> ExperimentResult:
    """Average request handling duration per algorithm and pool size."""
    result = ExperimentResult(
        title=(
            "Figure 4: average request handling duration "
            "({} requests per point)".format(config.n_requests)
        ),
        columns=("algorithm", "servers", "us_per_request", "requests"),
    )
    builder = TableBuilder(
        seed=config.seed,
        hd_dim=config.hd_dim,
        hd_codebook_size=config.hd_codebook_size,
    )
    if "hd" in config.algorithms:
        builder.codebook()  # build once, outside the timed region
    for n_servers in config.server_counts:
        for algorithm in config.algorithms:
            if algorithm == "hd" and n_servers >= config.hd_codebook_size:
                continue  # the circle must satisfy n > k
            vectorized = algorithm == "hd"
            emulator = Emulator(
                lambda algorithm=algorithm: builder.build(algorithm),
                batch_size=config.batch_size,
                vectorized=vectorized,
                seed=config.seed,
            )
            report = emulator.run_standard(
                server_ids=list(range(n_servers)),
                n_requests=config.n_requests,
                record_assignments=False,
            )
            result.add(
                algorithm=algorithm,
                servers=n_servers,
                us_per_request=report.timing.mean_lookup_micros,
                requests=report.timing.n_lookups,
            )
    result.note(
        "baselines: scalar per-request path; hd: batched inference "
        "(batch={}) as the GPU stand-in (DESIGN.md).".format(config.batch_size)
    )
    return result
