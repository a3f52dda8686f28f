"""The package's runtime dependencies are numpy and the standard library,
and it holds only code that the program itself reaches."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import colortrack

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "colortrack").glob("*.py"))
# Everything that is the program rather than its tests: the package, and
# the benchmark and tools that run it. The package's own exports do not
# count as a use.
PROGRAM = sorted(p for top in ("src", "benchmark", "tools")
                 for p in (ROOT / top).rglob("*.py")
                 if p != ROOT / "src" / "colortrack" / "__init__.py")


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


def definitions(tree):
    """(label, name) of each top-level function and class, and of each
    class's methods other than dunders, labelled Class.method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs[:2])
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def mentions(tree):
    """Every name the tree uses: a Name, an attribute not taken on `np`, an
    imported name, or a string constant (the benchmark's tracer patches
    functions by their name as a string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_reached_outside_the_tests():
    used = set()
    for path in PROGRAM:
        used.update(mentions(ast.parse(path.read_text(encoding="utf-8"),
                                       str(path))))
    unreached = sorted(
        f"{path.stem}.{label}" for path in SOURCES
        for label, name in definitions(ast.parse(
            path.read_text(encoding="utf-8"), str(path)))
        if name not in used)
    assert not unreached, f"only the tests reach {', '.join(unreached)}"


def test_exports_resolve_to_names_not_modules():
    assert colortrack.__all__
    for name in colortrack.__all__:
        assert hasattr(colortrack, name), name
        assert not isinstance(getattr(colortrack, name),
                              types.ModuleType), name


def test_importing_the_package_loads_every_runtime_module():
    # the benchmark's setup_s times `import colortrack` as the cost of
    # loading the program, so the package must not defer its modules
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, colortrack; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert {"numpy"} | {f"colortrack.{m}" for m in (
        "control", "harness", "imaging", "plant", "region",
        "segmentation")} <= loaded
