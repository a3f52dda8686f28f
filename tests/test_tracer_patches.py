"""The benchmark's tracer patches program functions by module and name.

`benchmark/test_smoke.py` runs the tracer end to end but is slow; this
test only loads `benchmark/tracer.py` and checks that every name it
patches still resolves, so a rename under `src/` fails here first.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_resolve():
    patches = load_tracer().PATCHES
    assert patches
    for module, attr, _ in patches:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
