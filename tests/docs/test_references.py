"""Cross-references to the package resolve to something that exists.

Two kinds of reference name a ``repro`` object by its dotted path: the
target of a Sphinx role (``:func:``, ``:class:``, ``:meth:``,
``:attr:``, ``:data:``, ``:mod:``, ``:exc:``) in a ``src/repro``
docstring, and a backticked ``repro.``-dotted name in ``README.md`` or
``docs/*.md``.  Each must import and ``getattr`` its way to an object,
so deleting or renaming a public name cannot leave a reference behind.
Role targets that are not fully dotted (``:class:`Router``` inside its
own package) are out of scope.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCES = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
DOCUMENTS = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

_ROLE = re.compile(r":(?:func|class|meth|attr|data|mod|exc):`~?([^`]+)`")
_DOC_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def resolves(name: str) -> bool:
    """Whether ``name`` imports and ``getattr``s to an object."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        if not hasattr(obj, part) and inspect.ismodule(obj):
            try:
                importlib.import_module("{}.{}".format(obj.__name__, part))
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def docstring_targets():
    """``(file, target)`` for each dotted ``repro.`` role target."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, _DOCUMENTED):
                continue
            for match in _ROLE.finditer(ast.get_docstring(node, clean=False) or ""):
                # A target may wrap across docstring lines.
                target = "".join(match.group(1).split())
                if target.startswith("repro."):
                    yield path.relative_to(REPO_ROOT), target


def document_names():
    """``(file, name)`` for each backticked ``repro.`` name."""
    for path in DOCUMENTS:
        for match in _DOC_NAME.finditer(path.read_text()):
            yield path.relative_to(REPO_ROOT), match.group(1)


def test_docstring_role_targets_resolve():
    targets = list(docstring_targets())
    assert targets
    dangling = [(str(path), name) for path, name in targets if not resolves(name)]
    assert not dangling, dangling


def test_document_names_resolve():
    names = list(document_names())
    assert names
    dangling = [(str(path), name) for path, name in names if not resolves(name)]
    assert not dangling, dangling


def test_missing_names_do_not_resolve():
    # The two checks above are only as strict as the resolver: a
    # deleted export, a submodule that does not exist and a missing
    # attribute of a class must each fail to resolve.
    assert resolves("repro.emulator.run_serving_scenario")
    assert not resolves("repro.emulator.run_scenario")
    assert not resolves("repro.emulator.no_such_module")
    assert not resolves("repro.control.Autoscaler.no_such_method")
