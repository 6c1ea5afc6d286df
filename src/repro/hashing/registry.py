"""String-keyed algorithm registry: construct tables by name + config.

Production callers should not hard-code table classes; they select an
algorithm by name and a plain-data config, the shape a serving config
file or a :meth:`~repro.hashing.base.DynamicHashTable.state_dict`
snapshot carries::

    from repro.hashing import make_table

    table = make_table("hd", dim=4_096, codebook_size=512, seed=7)
    table = make_table({"algorithm": "consistent",
                        "config": {"replicas": 4}})

Each algorithm module registers itself at import time with
:func:`register_table`, naming a frozen config dataclass whose fields
are the constructor keywords it accepts -- so ``make_table`` validates
configuration *before* construction and snapshots restore through the
same validated path.  Third-party tables register the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, Union

from ..errors import UnknownAlgorithmError
from .base import DynamicHashTable

__all__ = [
    "AlgorithmEntry",
    "TableConfig",
    "TableSpec",
    "make_table",
    "register_table",
    "registered_algorithms",
    "algorithm_entry",
    "table_class",
]

#: A table spec: an algorithm name, or a mapping with an ``algorithm``
#: key and an optional ``config`` mapping (the shape ``state_dict``
#: snapshots and config files carry).
TableSpec = Union[str, Mapping[str, Any]]


@dataclass(frozen=True)
class TableConfig:
    """Base config shared by algorithms that only take a hash seed."""

    seed: int = 0


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered algorithm: class, config schema and metadata."""

    name: str
    cls: Type[DynamicHashTable]
    config_cls: type
    description: str = ""
    paper: bool = False
    #: Optional custom builder ``factory(config) -> table`` for
    #: algorithms whose constructor is not ``cls(**config)`` (e.g. the
    #: hierarchical composition, which builds sub-tables from specs).
    factory: Optional[Callable[[Any], DynamicHashTable]] = None

    def build(self, config: Any) -> DynamicHashTable:
        if self.factory is not None:
            return self.factory(config)
        kwargs = {f.name: getattr(config, f.name) for f in fields(config)}
        return self.cls(**kwargs)

    @property
    def capabilities(self) -> Tuple[str, ...]:
        """Feature flags a heterogeneous-fleet operator selects by.

        ``weighted``
            :meth:`~DynamicHashTable.join` accepts per-server capacity
            weights.
        ``churn-incremental``
            the class's membership hooks are its own array-level bulk
            kernel (:meth:`~DynamicHashTable._join_many` /
            :meth:`~DynamicHashTable._leave_many`): one structural
            operation per membership *event*, not one per member.
            Unflagged classes implement the per-member
            ``_join``/``_leave`` instead, which the default bulk hooks
            loop over.
        ``delta-close``
            a scoped epoch close, so a tracked
            :class:`~repro.service.migration.DeltaTracker` closes
            join/leave epochs without re-routing the whole tracked
            population: from cached winning scores
            (:meth:`~DynamicHashTable._delta_scores` /
            :meth:`~DynamicHashTable._delta_challenge`), or by diffing
            the owners of a position-routed table
            (:meth:`~DynamicHashTable._route_positions` /
            :meth:`~DynamicHashTable._position_owners`).

        All flags are derived from which protocol methods the class
        actually overrides, so they stay truthful as kernels land --
        nothing here is hand-maintained per algorithm.  The vectorized
        ``_route_batch`` and ``_route_replicas_batch`` kernels are not
        flags: every built-in entry has both.
        """
        flags = []
        if getattr(self.cls, "supports_weights", False):
            flags.append("weighted")
        if (
            self.cls._join_many is not DynamicHashTable._join_many
            or self.cls._leave_many is not DynamicHashTable._leave_many
        ):
            flags.append("churn-incremental")
        if (
            self.cls._delta_scores is not DynamicHashTable._delta_scores
            or self.cls._route_positions is not DynamicHashTable._route_positions
        ):
            flags.append("delta-close")
        return tuple(flags)


_REGISTRY: Dict[str, AlgorithmEntry] = {}


def register_table(
    name: str,
    *,
    config: type = TableConfig,
    description: str = "",
    paper: bool = False,
    factory: Optional[Callable[[Any], DynamicHashTable]] = None,
) -> Callable[[Type[DynamicHashTable]], Type[DynamicHashTable]]:
    """Class decorator adding a table class to the algorithm registry.

    ``config`` is a dataclass whose fields are the keyword arguments the
    algorithm accepts through :func:`make_table`.
    """
    if not is_dataclass(config):
        raise TypeError("config must be a dataclass, got {!r}".format(config))

    def decorate(cls: Type[DynamicHashTable]) -> Type[DynamicHashTable]:
        if name in _REGISTRY:
            raise ValueError("algorithm {!r} is already registered".format(name))
        doc_lines = (cls.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = AlgorithmEntry(
            name=name,
            cls=cls,
            config_cls=config,
            description=description or (doc_lines[0] if doc_lines else name),
            paper=paper,
            factory=factory,
        )
        return cls

    return decorate


def registered_algorithms(paper_only: bool = False) -> Tuple[str, ...]:
    """Registered algorithm names, in registration order."""
    return tuple(
        name
        for name, entry in _REGISTRY.items()
        if entry.paper or not paper_only
    )


def algorithm_entry(name: str) -> AlgorithmEntry:
    """The registry entry for ``name`` (raises UnknownAlgorithmError)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithmError(
            "unknown algorithm {!r}; registered: {}".format(
                name, ", ".join(sorted(_REGISTRY))
            )
        ) from None


def table_class(name: str) -> Type[DynamicHashTable]:
    """The table class registered under ``name``."""
    return algorithm_entry(name).cls


def make_table(spec: TableSpec, **config: Any) -> DynamicHashTable:
    """Construct a registered table from a spec plus config overrides.

    ``spec`` is an algorithm name or a ``{"algorithm": ..., "config":
    {...}}`` mapping; keyword arguments override the spec's config.
    Unknown keys are rejected by the algorithm's config dataclass.
    """
    if isinstance(spec, Mapping):
        name = spec["algorithm"]
        merged = dict(spec.get("config") or {})
        merged.update(config)
    else:
        name = spec
        merged = config
    entry = algorithm_entry(name)
    try:
        built = entry.config_cls(**merged)
    except TypeError as error:
        raise TypeError(
            "invalid config for algorithm {!r}: {}".format(name, error)
        ) from None
    return entry.build(built)
