"""The public surface: every exported name exists and is used outside its
module, and the package imports only exported names, so a deletion that
leaves a stale export fails here."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import lerayflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(lerayflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"lerayflow.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    with open(lerayflow.__file__) as fh:
        tree = ast.parse(fh.read())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"lerayflow.{node.module}")
            exported = getattr(module, "__all__", ())
            stray += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in exported]
    assert stray == []


ROOT = pathlib.Path(lerayflow.__file__).parents[2]


def _names_used(path: pathlib.Path) -> set[str]:
    """Identifiers a file uses: names, attributes, imported names, and both
    parts of ``"module.name"`` strings (the benchmark's span names)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+\.\w+", node.value):
            names.update(node.value.split("."))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_used_elsewhere(name):
    """A name in ``__all__`` is used by another module of the package, by
    ``lerayflow/__init__``, by a test or by the benchmark (read only)."""
    own = ROOT / "src" / "lerayflow" / f"{name}.py"
    others = [p for pattern in ("src/lerayflow/*.py", "tests/*.py",
                                "perfbench/*.py")
              for p in ROOT.glob(pattern) if p != own]
    used = set().union(*map(_names_used, others))
    exported = getattr(importlib.import_module(f"lerayflow.{name}"),
                       "__all__", ())
    assert [n for n in exported if n not in used] == []
