"""The pairs tool's summary, on fixed numbers: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def runs_of(parent, change, metric="frame_ms_p50", workload="step_track"):
    """Run records with `metric` from the lists and 1.0 for every other
    end-to-end metric, seeds 1, 2, ..., each of 100 operations, none
    failed."""
    runs = []
    for seed, values in enumerate(zip(parent, change), 1):
        for side, value in zip(bench_pairs.SIDES, values):
            metrics = {d["name"]: 1.0 for d in END_TO_END}
            metrics[metric] = value
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "attempted": 100, "failed": 0, "metrics": metrics})
    return runs


def test_pair_order_and_seeds():
    assert bench_pairs.order(161) == ("parent", "change")
    assert bench_pairs.order(162) == ("change", "parent")
    assert bench_pairs.parse_seeds("161-164") == [161, 162, 163, 164]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]


def test_summary_of_a_met_claim():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [v - 0.5 for v in parent]
    change[9] = 2.0  # the change loses one pair
    s = bench_pairs.summarize(runs_of(parent, change), END_TO_END,
                              ("step_track", "frame_ms_p50"))
    m = s["end_to_end"]["step_track"]["frame_ms_p50"]
    assert m["parent"] == pytest.approx(
        {"median": 1.45, "q1": 1.225, "q3": 1.675})
    assert m["change"]["median"] == pytest.approx(0.95)
    assert m["change_wins"] == "9 of 10"
    assert m["parent_iqr"] == pytest.approx(0.45)
    assert m["median_gap"] == pytest.approx(0.5)  # positive: change better
    assert m["worse_by_fraction_of_parent"] == pytest.approx(-0.5 / 1.45)
    assert m["within_bound"] and m["bound"] == 0.25
    claim = s["claimed_gain"]
    assert claim["met"] and claim["change_wins"] == "9 of 10"
    # equal values are no win, and no loss beyond the bound
    other = s["end_to_end"]["step_track"]["frames_per_s"]
    assert other["change_wins"] == "0 of 10" and other["within_bound"]
    assert other["median_gap"] == 0.0


@pytest.mark.parametrize("shift, lost, met", [
    (-0.5, 2, False),  # 8 wins of 10
    (-0.05, 0, False),  # 10 wins, but the gap is inside the parent's IQR
])
def test_summary_of_an_unmet_claim(shift, lost, met):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [v + shift for v in parent]
    for i in range(lost):
        change[i] = 5.0
    s = bench_pairs.summarize(runs_of(parent, change), END_TO_END,
                              ("step_track", "frame_ms_p50"))
    assert s["claimed_gain"]["met"] is met


def test_summary_bound_and_per_pair_for_higher_is_better():
    # frames_per_s falls 30 %: worse beyond its 0.25 bound
    s = bench_pairs.summarize(runs_of([100.0] * 4, [70.0] * 4,
                                      "frames_per_s"), END_TO_END)
    m = s["end_to_end"]["step_track"]["frames_per_s"]
    assert m["worse_by_fraction_of_parent"] == pytest.approx(0.3)
    assert not m["within_bound"]
    assert m["median_gap"] == pytest.approx(-30.0)
    assert "claimed_gain" not in s
    rss = s["end_to_end"]["step_track"]["peak_rss_mb"]["per_pair"]
    assert [p["seed"] for p in rss] == [1, 2, 3, 4]
    assert rss[0] == {"seed": 1, "parent": 1.0, "change": 1.0,
                      "change_over_parent": 1.0}


def test_summary_skips_unpaired_and_failed_runs():
    runs = runs_of([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    runs.append({"workload": "step_track", "seed": 4, "side": "parent",
                 "metrics": runs[0]["metrics"]})
    del runs[0]["metrics"]  # seed 1's parent run failed
    table = bench_pairs.summarize(runs, END_TO_END)["end_to_end"]
    assert table["step_track"]["frame_ms_p50"]["change_wins"] == "0 of 2"


def test_failed_share_per_workload_and_in_the_claim():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [v - 0.5 for v in parent]
    runs = runs_of(parent, change)
    claim = ("step_track", "frame_ms_p50")
    s = bench_pairs.summarize(runs, END_TO_END, claim)
    assert s["end_to_end"]["step_track"]["failed_share"] == {
        "parent": 0.0, "change": 0.0}
    assert s["claimed_gain"]["met"]  # an equal share does not block it
    # summed failed over summed attempted, per side: 3 of 1000 against 2
    runs[0].update(attempted=200, failed=3)  # seed 1's parent run
    runs[3].update(attempted=100, failed=2)  # seed 2's change run
    runs[5]["failed"] = 1  # seed 3's change run
    s = bench_pairs.summarize(runs, END_TO_END, claim)
    share = s["end_to_end"]["step_track"]["failed_share"]
    assert share == pytest.approx({"parent": 3 / 1100, "change": 3 / 1000})
    assert s["claimed_gain"]["failed_share"] == share
    assert s["claimed_gain"]["change_wins"] == "10 of 10"
    assert not s["claimed_gain"]["met"]  # the change's share is larger


@pytest.mark.parametrize("flag, value, error", [
    ("--seeds", "170-161", "'170-161' gives seeds []"),  # an empty range
    ("--seeds", "5", "'5' gives seeds [5]"),  # one pair: no comparison
    ("--seeds", "3,4,3", "'3,4,3' gives seeds [3, 4, 3]"),
    ("--parent", "missing", "'missing' is not a directory"),
    ("--change", "missing", "'missing' is not a directory"),
    ("--change", "bench.json", "'bench.json' is not a directory"),
], ids=["seeds-reversed", "seeds-one", "seeds-repeated", "parent-missing",
        "change-missing", "change-file"])
def test_bad_seeds_or_checkout_exit_before_any_run(flag, value, error,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench.json").write_text("")
    out = tmp_path / "out.json"
    flags = {"--parent": str(tmp_path), "--change": str(tmp_path),
             "--seeds": "1-2", "--out": str(out), flag: value}
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([arg for item in flags.items() for arg in item])
    assert exc.value.code == 2
    assert f"argument {flag}: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("claim", ["step_track", "step_track:frame_p50",
                                   "offline:frame_ms_p50", ":frame_ms_p50",
                                   "step_track:frame_ms_p50:x"])
def test_bad_claim_exits_before_any_run(claim, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change",
                          str(tmp_path), "--seeds", "1-2", "--out", str(out),
                          "--claim", claim])
    assert exc.value.code == 2
    assert f"--claim {claim!r}: expected WORKLOAD:METRIC" in \
        capsys.readouterr().err
    assert not out.exists()


def test_claim_names_are_those_of_the_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_pairs.parse_claim("offline_vga:frames_per_s", bench) == (
        "offline_vga", "frames_per_s")
