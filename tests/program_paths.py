"""Run the program's paths under the standard library's `trace` module.

    python tests/program_paths.py DIR

Runs every `colortrack` subcommand on stock and edge inputs, one failing
command for each kind of config error, `python -m colortrack --help` and
the benchmark's offline `segment_still` on one still, with the package's
import traced too. Each command's exit code is checked. Files go to DIR.
Prints, as JSON, the lines of each package module that `trace` counted.
"""

import contextlib
import io
import json
import runpy
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "colortrack"


def drive(out: Path) -> None:
    import numpy as np

    from colortrack import imaging
    from colortrack.cli import main

    def run(code, *argv):
        argv = [str(a) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            got = main(argv)
        if got != code:
            raise SystemExit(f"colortrack {' '.join(argv)} exited {got}, "
                             f"not {code}: {err.getvalue()}")

    ppm, raw = out / "frame.ppm", out / "frame.rgb565"
    mask = out / "mask.pbm"
    run(0, "design", "--k", 1, "--tau", 0.2, "--ts", 1.6, "--po", 5,
        "--csv", out / "gains.csv")
    # each shape; a PPM and a raw file
    run(0, "render", "--out", ppm)
    run(0, "render", "--set", "object_kind=triangle", "--out", raw)
    run(0, "render", "--set", "object_kind=rectangle",
        "--out", out / "rectangle.ppm")
    run(0, "segment", ppm, "--pick", "231,121,24", "--mask-out", mask,
        "--words-out", out / "mask.words")
    run(0, "segment", raw, "--width", 320, "--height", 240,
        "--pick", "231,121,24")
    run(0, "segment", ppm, "--pick", "40,200,60")  # finds nothing
    run(1, "segment", ppm, "--pick", "0,0,0")  # a black chroma pick

    # An odd-size still whose object has a hole and a notch from the top,
    # read with a config file, and its mask written over a longer file.
    background, color = (16, 16, 16), (230, 120, 30)
    px = np.full((9, 13), imaging.narrow(*background), np.uint16)
    px[1:8, 1:12] = imaging.narrow(*color)
    px[5, 4] = px[1:3, 8] = imaging.narrow(*background)
    still = out / "still.ppm"
    imaging.write_ppm(imaging.Frame(13, 9, px), still)
    cfg = out / "segment.cfg"
    cfg.write_text("# the rgb box\n\nmode = rgb\n")
    run(0, "segment", still, "--pick", ",".join(map(str, color)),
        "--config", cfg, "--mask-out", mask)

    # README's experiments, a centred start that settles at once, a lost
    # target, and a circle fast enough that a crop's component reaches the
    # crop's last row
    run(0, "track", "--set", "motion_az=20", "--set", "motion_el=15")
    run(0, "track", "--set", "duration=0.5", "--csv", out / "track.csv",
        "--report", out / "track.txt")
    run(0, "track", "--set", "motion_az=100", "--set", "duration=0.3")
    run(0, "clock", "--set", "motion_period=0.6", "--csv", out / "clock.csv",
        "--report", out / "clock.txt")
    run(0, "sweep", "--out", out / "sweep.txt")

    # each kind of config error
    no_equals, not_utf8 = out / "no_equals.cfg", out / "not_utf8.cfg"
    no_equals.write_text("duration\n")
    not_utf8.write_bytes(b"\xff\n")
    for bad in (["--set", "duration"], ["--set", "speed=1"],
                ["--set", "min_width=abc"], ["--set", "ppd_x=0"],
                ["--set", "u_min=5"], ["--config", no_equals],
                ["--config", not_utf8], ["--config", out / "missing.cfg"]):
        run(1, "track", *bad)

    sys.argv = ["colortrack", "--help"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("colortrack", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        if e.code != 0:
            raise

    # the benchmark's offline step, with the fill, on the holed still
    sys.path.append(str(ROOT / "benchmark"))
    import workloads

    ys, xs = np.nonzero(px == imaging.narrow(*color))
    reg = workloads.segment_still(
        workloads.Still(str(still), color, "chroma", len(xs),
                        (xs.mean(), ys.mean())), out / "still.pbm")
    if reg.pixel_count != len(xs):
        raise SystemExit(f"segment_still filled {reg.pixel_count} px, "
                         f"not {len(xs)}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    # Counts numpy's lines too: trace keeps one ignore decision per file
    # stem, so ignoring numpy's directory would ignore the package's
    # __init__.py with numpy's.
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(drive, Path(sys.argv[1]))
    counted = {}
    for (filename, line) in tracer.counts:
        if Path(filename).parent == PACKAGE:
            counted.setdefault(Path(filename).name, []).append(line)
    json.dump({name: sorted(lines) for name, lines in counted.items()},
              sys.stdout)
