"""The public surface: every exported name exists, and the package imports
only exported names, so a deletion that leaves a stale export fails here."""

import ast
import importlib
import pkgutil

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
