import importlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from colortrack import config as cfgmod
from colortrack import harness, imaging
from colortrack.cli import main
from colortrack.harness import Scenario
from colortrack.imaging import Frame, Scene, Shape, render
from colortrack.plant import CameraIntrinsics, CameraPose
from oracles import filled_frame

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_design_subcommand(capsys, tmp_path):
    csv = tmp_path / "gains.csv"
    code, out, _ = run(capsys, "design", "--k", "1", "--tau", "1",
                       "--ts", "4", "--po", "4.3214", "--csv", str(csv))
    assert code == 0
    assert "kp: 1" in out
    assert "ki: 2" in out
    assert csv.read_text().startswith("kp,ki,xi,wn\n")


def test_design_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "design", "--k", "1", "--tau", "0.1",
                       "--ts", "2", "--po", "5")
    assert code == 1
    assert err.startswith("error: --k, --tau, --ts, --po: infeasible spec")


def test_segment_subcommand(capsys, tmp_path):
    scene = Scene(shapes=[Shape("disk", 0.0, 0.0, 4.0, (230, 120, 30))])
    frame = render(scene, CameraPose(), CameraIntrinsics())
    img = tmp_path / "frame.ppm"
    imaging.write_ppm(frame, img)
    mask = tmp_path / "mask.pbm"
    words = tmp_path / "mask.words"
    code, out, _ = run(capsys, "segment", str(img), "--pick", "231,121,24",
                       "--mask-out", str(mask), "--words-out", str(words))
    assert code == 0
    assert "center (160, 120)" in out
    assert mask.read_bytes().startswith(b"P4\n320 240\n")
    assert words.stat().st_size == 2400 * 4


def test_segment_reads_mode_and_min_width_from_config(capsys, tmp_path):
    px = np.zeros((16, 16), np.uint16)
    px[4:, 2] = imaging.narrow(200, 100, 40)  # a one-pixel-wide bar
    px[2:6, 6:10] = imaging.narrow(100, 50, 20)  # same hue, dark: chroma only
    px[8:12, 10:14] = imaging.narrow(200, 100, 40)
    img = tmp_path / "frame.ppm"
    imaging.write_ppm(Frame(16, 16, px), img)
    cfg = tmp_path / "segment.cfg"
    cfg.write_text("mode = rgb\nmin_width = 1\n")
    # only the rgb box at min_width 1 starts on the bar
    code, out, _ = run(capsys, "segment", str(img), "--pick", "206,101,41",
                       "--config", str(cfg))
    assert code == 0
    assert out.startswith("region: x 2..2, y 4..15, ")


def test_segment_no_region(capsys, tmp_path):
    img = tmp_path / "black.ppm"
    imaging.write_ppm(filled_frame(16, 16, 0), img)
    code, out, _ = run(capsys, "segment", str(img), "--pick", "255,0,0")
    assert code == 0
    assert "no region found" in out


def test_track_subcommand_deterministic(capsys, tmp_path):
    cfg = tmp_path / "track.cfg"
    cfg.write_text("kind = step_track\nduration = 1.5\n"
                   "motion = fixed\nmotion_az = 15\nmotion_el = -10\n")
    outputs = []
    for name in ("r1.csv", "r2.csv"):
        csv = tmp_path / name
        code, out, _ = run(capsys, "track", "--config", str(cfg),
                           "--csv", str(csv),
                           "--report", str(tmp_path / "rep.txt"))
        assert code == 0
        assert "settling_time_s:" in out
        outputs.append(csv.read_bytes())
    assert outputs[0] == outputs[1]


def test_track_set_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "track.cfg"
    cfg.write_text("kind = step_track\nduration = 9.0\n")
    csv = tmp_path / "run.csv"
    code, _, _ = run(capsys, "track", "--config", str(cfg),
                     "--set", "duration=0.5", "--csv", str(csv))
    assert code == 0
    n_rows = len(csv.read_text().splitlines()) - 1
    assert n_rows == round(0.5 * 10.9)


def mean_radius(out):
    line = [l for l in out.splitlines() if l.startswith("mean_radius_px")][0]
    return float(line.split(":")[1])


def test_clock_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "clock", "--set", "motion_radius=10.94625",
                       "--set", "motion_period=3.82", "--set", "duration=3.82")
    assert code == 0
    assert abs(mean_radius(out) - 87.57) <= 2.0


def test_clock_alone_is_criterion_8(capsys):
    # two whole revolutions of the 87.57 px circle, as criterion 8 runs it
    code, out, _ = run(capsys, "clock")
    assert code == 0
    assert out.splitlines()[:2] == ["mean_radius_px: 87.5636",
                                    "radius_std_px: 0.334"]


def test_clock_motion_radius_key_sets_the_radius(capsys):
    code, out, _ = run(capsys, "clock", "--set", "motion_radius=5")
    assert code == 0
    assert abs(mean_radius(out) - 5 * 8) <= 1.0  # 5 deg at 8 px/deg


def test_sweep_subcommand(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--out", str(out_file))
    assert code == 0
    assert out.splitlines()[0] == "level,chroma_pixels,rgb_pixels"
    assert len(out_file.read_text().splitlines()) == 5


def test_render_subcommand(capsys, tmp_path):
    out_ppm = tmp_path / "frame.ppm"
    code, _, _ = run(capsys, "render", "--out", str(out_ppm))
    assert code == 0
    frame = imaging.read_ppm(out_ppm)
    assert (frame.width, frame.height) == (320, 240)
    out_raw = tmp_path / "frame.rgb565"
    code, _, _ = run(capsys, "render", "--out", str(out_raw))
    assert code == 0
    assert out_raw.stat().st_size == 320 * 240 * 2


def test_render_matches_library(capsys, tmp_path):
    out_raw = tmp_path / "frame.rgb565"
    run(capsys, "render", "--out", str(out_raw))
    s = Scenario()
    expected = render(s.scene_at(0.0), CameraPose(), s.intrinsics)
    back = imaging.read_rgb565(out_raw, 320, 240)
    assert np.array_equal(back.pixels, expected.pixels)


def test_clock_keeps_config_motion_center(capsys, tmp_path):
    csv = tmp_path / "clock.csv"
    code, _, _ = run(capsys, "clock", "--set", "motion_az=5",
                     "--set", "duration=3.82", "--csv", str(csv))
    assert code == 0
    rows = np.genfromtxt(csv, delimiter=",", names=True)
    mean_cx = rows["cx"][rows["found"] == 1].mean()
    assert abs(mean_cx - (160 + 5 * 8)) <= 2.0  # 5 deg right at 8 px/deg


def test_non_finite_duration_exit_code(capsys):
    for value in ("inf", "nan"):
        code, _, err = run(capsys, "track", "--set", f"duration={value}")
        assert code == 1
        assert err.startswith("error:")


def test_bad_config_value_names_key(capsys):
    code, _, err = run(capsys, "track", "--set", "min_width=abc")
    assert code == 1
    assert err.startswith("error: config key 'min_width': ")


def test_scenario_without_frames_exit_code(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    code, _, err = run(capsys, "track", "--set", "sample_time=10",
                       "--set", "duration=1", "--csv", str(csv))
    assert code == 1
    assert err.startswith("error: config key 'sample_time', 'duration': ")
    assert not csv.exists()


@pytest.mark.parametrize("duration, sample_time", [("1e308", "1e-10"),
                                                   ("1e300", "1e-300")])
def test_scenario_with_infinite_frame_count_exit_code(capsys, duration,
                                                      sample_time):
    # duration / sample_time overflows to inf, so there is no frame count
    code, out, err = run(capsys, "track", "--set", f"duration={duration}",
                         "--set", f"sample_time={sample_time}")
    assert code == 1
    assert err.startswith("error: config key 'duration', 'sample_time': ")
    assert out == ""


OUT_OF_RANGE_ITEMS = ["illumination=-1", "rgb_margin=-5",
                      "chroma_margin=-0.1", "background=300,0,0",
                      "object_size=inf", "object_size=nan",
                      "object_size=-1", "i_min=0",
                      # checked by a nested dataclass, or only at run time
                      # before they had a rule
                      "ppd_x=inf", "ppd_x=nan", "ppd_y=0",
                      "ts=nan", "ts=inf", "pan_tau=inf",
                      "tilt_k=nan", "u_max=nan", "u_min=nan",
                      "u_min=5", "u_max=-1", "min_width=0",
                      "object_kind=star", "mode=foo",
                      "kind=foo", "duration=0.01",
                      # a spec the loop cannot track: ts > 8*tau on an axis
                      "ts=2", "pan_tau=0.1", "tilt_tau=0.1"]


@pytest.mark.parametrize("item", OUT_OF_RANGE_ITEMS)
def test_out_of_range_config_value_exit_code(capsys, item):
    key = item.partition("=")[0]
    code, _, err = run(capsys, "track", "--set", item)
    assert code == 1
    assert err.startswith(f"error: config key '{key}': ")


DEGENERATE_PLANT_ITEMS = ["pan_tau=1e300", "pan_k=1e-320", "tilt_tau=1e300",
                          "tilt_k=1e-320", "ppd_x=1e-320"]


@pytest.mark.parametrize("item", DEGENERATE_PLANT_ITEMS)
def test_degenerate_sampled_plant_exit_code(capsys, tmp_path, item):
    # the plant passes its own checks, but its sampled form has no usable
    # gain; the error comes before the run and names the key
    csv = tmp_path / "run.csv"
    code, out, err = run(capsys, "track", "--set", item, "--csv", str(csv))
    assert code == 1
    assert err.startswith(f"error: config key '{item.partition('=')[0]}': "
                          "degenerate sampled plant: ")
    assert out == ""
    assert not csv.exists()


@pytest.mark.parametrize("item, color, level", [
    ("illumination=0", "(230, 120, 30)", "0"),
    ("illumination=0.02", "(230, 120, 30)", "0.02"),
    ("object_color=0,0,0", "(0, 0, 0)", "1"),
    ("object_color=3,3,3", "(3, 3, 3)", "1"),  # quantizes to word 0
], ids=["illumination=0", "illumination=0.02", "object_color=0,0,0",
        "object_color=3,3,3"])
def test_black_pick_exit_code(capsys, tmp_path, item, color, level):
    # the object renders black, so the chroma pick has no chromaticity; the
    # error names both fields that make the pick
    csv = tmp_path / "run.csv"
    code, out, err = run(capsys, "track", "--set", item, "--csv", str(csv))
    assert code == 1
    assert err == (f"error: object_color {color} at illumination {level}: "
                   "cannot derive a chroma threshold from a black pick\n")
    assert out == ""
    assert not csv.exists()


def test_black_pick_flag_is_named(capsys, tmp_path):
    img = tmp_path / "still.ppm"
    imaging.write_ppm(filled_frame(8, 8, 0xF800), img)
    code, out, err = run(capsys, "segment", str(img), "--pick", "0,0,0")
    assert (code, out) == (1, "")
    assert err == ("error: --pick: cannot derive a chroma threshold from a "
                   "black pick\n")
    # the first level is the one the sweep picks at
    sweep = tmp_path / "sweep.txt"
    code, out, err = run(capsys, "sweep", "--levels", "0.0", "0.5",
                         "--out", str(sweep))
    assert (code, out) == (1, "")
    assert err == ("error: --levels: object_color (230, 120, 30) at "
                   "illumination 0: cannot derive a chroma threshold from "
                   "a black pick\n")
    assert not sweep.exists()


@pytest.mark.parametrize("levels", [[], ["--levels", "0.5", "0.2"],
                                    ["--levels", "0.5", "2.0"]],
                         ids=["default-levels", "dim-levels", "bad-levels"])
def test_black_color_sweep_names_no_flag(capsys, tmp_path, levels):
    # a colour that is black in full light is at fault whatever the levels,
    # even a level out of range
    sweep = tmp_path / "sweep.txt"
    code, out, err = run(capsys, "sweep", "--set", "object_color=0,0,0",
                         *levels, "--out", str(sweep))
    assert (code, out) == (1, "")
    assert err == ("error: object_color (0, 0, 0) at illumination 1: cannot "
                   "derive a chroma threshold from a black pick\n")
    assert not sweep.exists()


def test_sweep_bad_level_after_a_good_one_prints_nothing(capsys, tmp_path):
    # each level is checked as the sweep reaches it, before any output
    sweep = tmp_path / "sweep.txt"
    code, out, err = run(capsys, "sweep", "--levels", "1", "2",
                         "--out", str(sweep))
    assert (code, out) == (1, "")
    assert err == "error: --levels: illumination must be in [0, 1]\n"
    assert not sweep.exists()


def test_black_pick_in_rgb_mode_still_runs(capsys, tmp_path):
    img = tmp_path / "still.ppm"
    imaging.write_ppm(filled_frame(8, 8, 0), img)
    code, out, _ = run(capsys, "segment", str(img), "--pick", "0,0,0",
                       "--set", "mode=rgb")
    assert code == 0 and out.startswith("region: x 0..7, y 0..7")
    code, out, _ = run(capsys, "track", "--set", "mode=rgb",
                       "--set", "illumination=0", "--set", "duration=0.5")
    assert code == 0 and "lost_frames: 0" in out


@pytest.mark.parametrize("argv, flag", [
    (["clock", "--set", "motion_period=0"], "config key 'motion_period'"),
    (["clock", "--set", "motion_period=inf"], "config key 'motion_period'"),
    (["clock", "--set", "motion_radius=nan"], "config key 'motion_radius'"),
    # finite, but 2*pi*t/period overflows
    (["clock", "--set", "motion_period=1e-310"],
     "config key 'motion_period'"),
    (["sweep", "--levels", "1.5"], "--levels"),
    (["sweep", "--levels", "1", "-0.1"], "--levels"),
], ids=["period-0", "period-inf", "radius-nan", "period-1e-310",
        "levels-1.5", "levels-negative"])
def test_clock_and_sweep_bad_flag_names_the_flag(capsys, tmp_path, argv, flag):
    out_file = tmp_path / "out"
    out_flag = "--csv" if argv[0] == "clock" else "--out"
    code, out, err = run(capsys, *argv, out_flag, str(out_file))
    assert code == 1
    assert err.startswith(f"error: {flag}: ")
    assert out == ""
    assert not out_file.exists()


DESIGN = ["design", "--k", "1", "--tau", "0.2", "--ts", "1.6", "--po", "5"]


@pytest.mark.parametrize("argv, flags", [
    (["render", "--time", "nan"], "--time"),
    (["render", "--time", "inf"], "--time"),
    (["render", "--time", "nan", "--set", "motion=circular"], "--time"),
    # finite, but the circle's angle overflows
    (["render", "--time", "1e308", "--set", "motion=circular",
      "--set", "motion_radius=1"], "--time"),
    (DESIGN + ["--k", "0"], "--k, --tau"),
    (DESIGN + ["--tau", "inf"], "--k, --tau"),
    (DESIGN + ["--ts", "nan"], "--ts, --po"),
    (DESIGN + ["--po", "100"], "--ts, --po"),
    # valid values whose gains overflow: ki = inf
    (DESIGN + ["--k", "1e-320"], "--k, --tau, --ts, --po"),
    (DESIGN + ["--ts", "1e-320"], "--k, --tau, --ts, --po"),
    (DESIGN + ["--ts", "1e-200"], "--k, --tau, --ts, --po"),
], ids=["time-nan", "time-inf", "circular-time-nan", "circular-time-1e308",
        "k-0", "tau-inf", "ts-nan", "po-100", "k-1e-320", "ts-1e-320",
        "ts-1e-200"])
def test_render_and_design_bad_flag_names_the_flag(capsys, tmp_path, argv,
                                                   flags):
    out_file = tmp_path / "out"
    out_flag = "--out" if argv[0] == "render" else "--csv"
    code, out, err = run(capsys, *argv, out_flag, str(out_file))
    assert code == 1
    assert err.startswith(f"error: {flags}: ")
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("items, keys", [
    (["u_min=0", "u_max=0"], "'u_min', 'u_max'"),
    (["motion=circular", "motion_period=nan"], "'motion', 'motion_period'"),
    (["motion=circular", "motion_period=1e-310"],
     "'motion', 'motion_period'"),
    (["kind=step_track", "ts=2"], "'kind', 'ts'"),
], ids=["u_min=u_max", "circular-period-nan", "circular-angle-overflows",
        "kind-and-ts"])
def test_bad_joint_config_values_name_every_key(capsys, items, keys):
    # a rule on two keys, or a nested dataclass's own check, is applied
    # before the run and names every key given for it
    argv = [arg for item in items for arg in ("--set", item)]
    code, out, err = run(capsys, "track", *argv)
    assert code == 1
    assert err.startswith(f"error: config key {keys}: ")
    assert out == ""


# Every bad value above but background=300,0,0, which parse_color refuses
# before any rule runs, the two-key cases, and the rules no case above breaks.
CONFIG_ERROR_CASES = (
    [[item] for item in OUT_OF_RANGE_ITEMS if item != "background=300,0,0"]
    + [["u_min=0", "u_max=0"], ["motion=circular", "motion_period=nan"],
       ["sample_time=10", "duration=1"],
       ["duration=1e308", "sample_time=1e-10"],
       ["duration=nan"], ["sample_time=0"],
       ["motion=circular", "motion_period=1e-310"]]
    + [[item] for item in DEGENERATE_PLANT_ITEMS])


def direct_error(items) -> str:
    """str() of the error from building the Scenario the items describe
    without the config module."""
    top, nested = {}, {}
    for item in items:
        key, _, text = item.partition("=")
        outer, name, default = cfgmod.KEYS[key]
        (top if outer is None else nested.setdefault(outer, {}))[name] = (
            type(default)(text))
    with pytest.raises(ValueError) as e:
        Scenario(**top, **{outer: replace(getattr(Scenario(), outer), **kw)
                           for outer, kw in nested.items()})
    return str(e.value)


@pytest.mark.parametrize("items", CONFIG_ERROR_CASES, ids=" ".join)
def test_config_error_is_the_scenario_error(items):
    values = dict(item.split("=", 1) for item in items)
    with pytest.raises(ValueError) as e:
        cfgmod.scenario_from_config(values)
    keys = ", ".join(map(repr, values))
    assert str(e.value) == f"config key {keys}: {direct_error(items)}"


def test_config_error_cases_break_every_rule_a_config_can():
    # a Scenario field's keys: its own, or its nested dataclass's flattened
    # ones (spec -> ts, po)
    keys = {}
    for key, (outer, _, _) in cfgmod.KEYS.items():
        keys.setdefault(outer or key, []).append(key)
    # parse_color passes only colours that keep their rules
    reachable = {error for names, _, error in harness.SCENARIO_RULES
                 if not any(isinstance(cfgmod.KEYS[k][2], tuple)
                            for n in names for k in keys[n])}
    broken = {direct_error(items) for items in CONFIG_ERROR_CASES}
    assert reachable - broken == set()


def test_infeasible_spec_is_refused_only_when_tracking(capsys, tmp_path):
    # clock tracks nothing, so its axes need no gains
    code, _, _ = run(capsys, "clock", "--set", "pan_tau=0.1",
                     "--set", "duration=0.5")
    assert code == 0
    # the other commands' scenario is step_track, as with kind=foo
    img = tmp_path / "still.ppm"
    imaging.write_ppm(filled_frame(4, 4, 0), img)
    out_file = tmp_path / "out.ppm"
    for argv in (["segment", str(img), "--pick", "1,2,3"],
                 ["render", "--out", str(out_file)], ["sweep"]):
        code, out, err = run(capsys, *argv, "--set", "ts=2")
        assert (code, out) == (1, "")
        assert err == ("error: config key 'ts': infeasible spec: step_track "
                       "needs ts <= 8*tau on both axes\n")
    assert not out_file.exists()


def test_segment_pick_out_of_range_exit_code(capsys, tmp_path):
    img = tmp_path / "black.ppm"
    imaging.write_ppm(filled_frame(16, 16, 0), img)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "segment", str(img), "--pick", "300,0,0")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --pick: color channels must be in 0..255" in err


# each id names the segment flag that the key replaced
@pytest.mark.parametrize("item", ["rgb_margin=-5", "chroma_margin=-0.1",
                                  "chroma_margin=nan", "i_min=0",
                                  "min_width=0"],
                         ids=["--rgb-margin--5", "--chroma-margin--0.1",
                              "--chroma-margin-nan", "--i-min-0",
                              "--min-width-0"])
def test_segment_bad_threshold_flag_names_the_flag(capsys, tmp_path, item):
    img = tmp_path / "black.ppm"
    imaging.write_ppm(filled_frame(4, 4, 0), img)
    code, out, err = run(capsys, "segment", str(img), "--pick", "100,50,20",
                         "--set", "mode=rgb", "--set", item)
    assert code == 1
    assert err.startswith(f"error: config key '{item.partition('=')[0]}': ")
    assert out == ""


@pytest.mark.parametrize("name, payload, dims, message", [
    ("frame.rgb565", b"", ["--width", "0", "--height", "0"],
     "bad raw dimensions 0x0"),
    ("frame.rgb565", b"\x00" * 12, ["--width", "-2", "--height", "-3"],
     "bad raw dimensions -2x-3"),
    ("frame.rgb565", b"\x00" * 12, [],
     "raw .rgb565 input needs --width and --height"),
    ("frame.ppm", b"P6\n7 3\n255\n" + b"\x00" * 63,
     ["--width", "7", "--height", "3"],
     "--width, --height: only raw .rgb565 input takes a size; "
     "a PPM gives its own"),
], ids=["0x0", "-2x-3", "no-dimensions", "ppm-with-dimensions"])
def test_segment_bad_raw_dimensions_exit_code(capsys, tmp_path, name,
                                              payload, dims, message):
    raw = tmp_path / name
    raw.write_bytes(payload)
    code, out, err = run(capsys, "segment", str(raw), "--pick", "1,2,3",
                         *dims)
    assert code == 1
    assert err == f"error: {message}\n"
    assert out == ""


def test_set_without_equals_exit_code(capsys, tmp_path):
    csv = tmp_path / "run.csv"
    code, out, err = run(capsys, "track", "--set", "foo", "--csv", str(csv))
    assert code == 1
    assert err == "error: --set expects key=value, got 'foo'\n"
    assert out == ""
    assert not csv.exists()


def test_bad_config_path_exit_code(capsys):
    code, _, err = run(capsys, "track", "--config", "/nonexistent.cfg")
    assert code == 1
    assert err.startswith("error:")


def test_config_not_utf8_names_file_and_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"duration = 5\n\xff\n")
    code, out, err = run(capsys, "track", "--config", str(cfg))
    assert code == 1
    assert err == f"error: {cfg}:2: not UTF-8 text (byte 0xff at offset 0)\n"
    assert out == ""


@pytest.mark.parametrize("argv, first", [
    (["--help"], "usage: colortrack"),
    (["track", "--set", "duration=0.5"], "settling_time_s: "),
], ids=["help", "track"])
def test_python_m_colortrack_runs(tmp_path, argv, first):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "colortrack", *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(first)


def readme_experiments():
    """The arguments of each `colortrack` command in README's Experiments."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("\n## Experiments\n")[2].partition("\n## ")[0]
    return [line.split()[1:] for line in section.splitlines()
            if line.startswith("colortrack ")]


def test_readme_lists_the_stock_experiments():
    assert readme_experiments() == [
        ["track", "--set", "motion_az=20", "--set", "motion_el=15"],
        ["clock"], ["sweep"]]


@pytest.mark.parametrize("argv", readme_experiments(), ids=lambda a: a[0])
def test_readme_experiment_exits_zero(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out
    assert not list(tmp_path.iterdir())  # nothing saved unless asked


def test_console_script_is_cli_main():
    # read with a regex: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                      re.M | re.S).group(1)
    module, attr = re.fullmatch(r'colortrack = "([\w.]+):(\w+)"',
                                table.strip()).groups()
    assert getattr(importlib.import_module(module), attr) is main
