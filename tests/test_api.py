"""The public API: every name a module exports exists, and the package
re-exports only exported names."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import apobs

MODULES = sorted(m.name for m in pkgutil.iter_modules(apobs.__path__))


def test_modules_found():
    assert {"abstraction", "automata", "game", "ltl"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"apobs.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(apobs.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1
        module = importlib.import_module(f"apobs.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if n not in module.__all__] == [], \
            node.module
