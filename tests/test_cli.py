import numpy as np

from colortrack import harness, imaging
from colortrack.cli import main
from colortrack.imaging import Frame, Scene, Shape, render
from colortrack.plant import CameraIntrinsics, CameraPose


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
    assert "infeasible" in err


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


def test_segment_no_region(capsys, tmp_path):
    img = tmp_path / "black.ppm"
    imaging.write_ppm(Frame.filled(16, 16, 0), img)
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


def test_clock_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "clock", "--radius-px", "87.57",
                       "--period", "3.82", "--set", "duration=3.82")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("mean_radius_px")][0]
    assert abs(float(line.split(":")[1]) - 87.57) <= 2.0


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
    from colortrack.harness import Scenario
    s = Scenario()
    expected = render(s.scene_at(0.0), CameraPose(), s.intrinsics)
    back = imaging.read_rgb565(out_raw, 320, 240)
    assert np.array_equal(back.pixels, expected.pixels)


def test_clock_keeps_config_motion_center(capsys, tmp_path):
    csv = tmp_path / "clock.csv"
    code, _, _ = run(capsys, "clock", "--set", "motion_az=5",
                     "--set", "duration=3.82", "--csv", str(csv))
    assert code == 0
    rows = [r for r in harness.read_csv(csv).rows if r.found]
    mean_cx = sum(r.cx for r in rows) / len(rows)
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


def test_bad_config_path_exit_code(capsys):
    code, _, err = run(capsys, "track", "--config", "/nonexistent.cfg")
    assert code == 1
    assert err.startswith("error:")
