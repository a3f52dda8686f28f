"""Smoke test of the benchmark: each workload briefly, schema and names.

Run from the root of the repository:

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("step_track", "clock_motion", "offline_vga")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for key, table in (("end_to_end", layers.END_TO_END),
                       ("per_layer", layers.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} \
            == table
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_a_correct_result(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = layers.PER_LAYER if trace else layers.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": table[name][0]}
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert "frame_ms_tail" in proc.stdout and "beyond it" in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "step_track", "--seconds", "0.5", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_span_predictions_catch_a_zeroed_or_unexpected_layer():
    calls = dict.fromkeys(["imaging.render", "region.scan", "plant.step"], 5)
    assert layers.check_calls("step_track", calls) == []
    assert layers.check_calls("step_track", {**calls, "region.scan": 0})
    assert layers.check_calls("clock_motion", calls)  # plant never runs


def test_tail_keeps_ten_samples_beyond_it():
    assert layers.tail(list(range(1000))) == (90.0, 899, 100)
    assert layers.tail(list(range(100))) == (90.0, 89, 10)
    assert layers.tail(list(range(60))) == (75.0, 44, 15)
    assert layers.tail(list(range(8)))[0] == 50.0


def test_speed_scale_uses_the_reference_runs_around_a_frame():
    speed = calibrate.Speed()
    speed.t = [1.0, 2.0, 3.0]
    speed.s = [calibrate.NOMINAL_S * k for k in (1, 2, 4)]
    assert speed.scale(1.5) == pytest.approx(2 / 3)
    assert speed.scale(2.0) == pytest.approx(1 / 3)  # the run at 2.0 ends it
    assert speed.scale(3.5) == pytest.approx(1 / 4)
    assert speed.round_scale() == pytest.approx(3 / 7)
