"""The public API surface: everything advertised in ``__all__`` resolves."""

import importlib

import pytest

import repro

MODULES = [
    "repro",
    "repro.analysis",
    "repro.control",
    "repro.costmodel",
    "repro.emulator",
    "repro.errors",
    "repro.experiments",
    "repro.hashfn",
    "repro.hashing",
    "repro.hashing.registry",
    "repro.hdc",
    "repro.memory",
    "repro.perf",
    "repro.serve",
    "repro.service",
    "repro.service.migration",
    "repro.store",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), "{}.{} missing".format(module_name, name)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_quickstart_docstring_example():
    table = repro.HDHashTable(seed=7, dim=4_096, codebook_size=512)
    for name in ("alpha", "beta", "gamma"):
        table.join(name)
    assert table.lookup("user-42") in {"alpha", "beta", "gamma"}


def test_paper_algorithm_registry():
    paper = repro.registered_algorithms(paper_only=True)
    assert set(paper) == {
        "modular",
        "consistent",
        "rendezvous",
        "hd",
    }
    for name in paper:
        cls = repro.table_class(name)
        table = cls(seed=0) if cls is not repro.HDHashTable else cls(
            seed=0, dim=512, codebook_size=64
        )
        table.join("x")
        assert table.lookup("y") == "x"
