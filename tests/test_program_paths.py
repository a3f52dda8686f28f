"""A program path runs every statement of the package.

`program_paths.py` runs the CLI's commands, `python -m colortrack` and the
benchmark's offline segment step under the standard library's `trace`
module, import included, and prints the package lines it counted. A
statement ran when its first line was counted; its continuation lines
are not looked at, as `trace` counts only some of them. `raise`
statements and `except` blocks need not run.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "colortrack").glob("*.py"))

# Statements that no program path runs, as "module.function: first line",
# each with the library-only caller that reaches it.
LIBRARY_ONLY = {
    "imaging.narrow_channels: return np.zeros(shape, np.uint16)":
        "narrow_channels of an array with no pixels; read_ppm and "
        "read_rgb565 refuse a frame without any",
    "segmentation.segment_rgb: return PackedBinaryMask.from_bool(bits)":
        "segment_rgb on a frame of zero width or height, which no file, "
        "scenario or crop gives",
    "harness.TrajectoryRecord.__repr__: "
    'return f"TrajectoryRecord({self._values!r})"':
        "benchmark/run.py, which compares each timed round's results with "
        "the gate round's by repr",
}


def statements(body, scope):
    """(scope, statement) of each statement in body and the blocks within
    it, but bare strings, `raise` statements and `except` blocks."""
    for node in body:
        if isinstance(node, ast.Raise) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        yield scope, node
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        for block in ("body", "orelse", "finalbody"):
            yield from statements(getattr(node, block, ()), inner)


def test_every_statement_starts_its_own_line():
    # otherwise a counted line could stand for a statement that never ran,
    # as in `if x: y()`
    shared = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        starts = Counter(node.lineno for node in ast.walk(tree)
                         if isinstance(node, ast.stmt))
        shared += [f"{path.name}:{line}"
                   for line, n in starts.items() if n > 1]
    assert not shared, f"more than one statement starts on {shared}"


def test_a_program_path_runs_every_statement(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "program_paths.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counted = json.loads(proc.stdout)
    unrun = {}
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        ran = set(counted.get(path.name, ()))
        for scope, node in statements(ast.parse(text, str(path)).body,
                                      path.stem):
            if node.lineno not in ran:
                label = f"{scope}: {lines[node.lineno - 1].strip()}"
                unrun[label] = f"{path.name}:{node.lineno}"
    missed = [f"{where} {label}" for label, where in unrun.items()
              if label not in LIBRARY_ONLY]
    assert not missed, "no program path runs:\n" + "\n".join(missed)
    stale = set(LIBRARY_ONLY) - set(unrun)
    assert not stale, f"listed, but run or gone: {sorted(stale)}"
