"""The benchmark's correctness gate, run in process on every workload.

`benchmark/test_smoke.py` runs the whole benchmark in subprocesses; this
test runs only its gate pass, which traces one round through the names the
benchmark patches and checks every mask, every region and the predicted
call counts. A change under `src/` that breaks a benchmark import, a
patched name or a predicted call fails here.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).parent.parent / "benchmark"


# clock_motion's object passes every row, so the loop's crop below the last
# region follows it both up and down the frame
@pytest.mark.parametrize("name, frames", [("step_track", 55),
                                          ("clock_motion", 83),
                                          ("offline_vga", 24)])
def test_gate_pass_finds_no_problem(monkeypatch, tmp_path, name, frames):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    passes = importlib.import_module("passes")
    workloads = importlib.import_module("workloads")
    _, n_frames, _, rejected, problems = passes.gate_pass(
        workloads.make(name, 0, tmp_path))
    assert problems == []
    assert rejected == 0
    assert n_frames == frames
