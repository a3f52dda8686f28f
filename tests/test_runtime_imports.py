"""The package's runtime dependencies are numpy and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "colortrack").glob("*.py"))


def absolute_imports(tree):
    """(line, module) of every absolute import anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_are_found():
    assert "harness.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for line, module in absolute_imports(tree):
        top = module.partition(".")[0]
        assert top == "numpy" or top in sys.stdlib_module_names, (
            f"{path.name}:{line} imports {module}")
