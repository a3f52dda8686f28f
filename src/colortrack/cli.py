"""Command-line interface: design, segment, track, clock, sweep, render."""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace

from . import config as cfgmod
from . import harness, imaging, segmentation
from .control import LoopSpec, PlantModel, design_gains
from .harness import Scenario, run_illumination_sweep, run_scenario
from .plant import CameraPose
from .region import ScanParams, locate


def _scenario_from_args(args, base: Scenario = Scenario()) -> Scenario:
    values = {}
    if args.config:
        values.update(cfgmod.parse_config(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    return cfgmod.scenario_from_config(values, base)


def _load_frame(args) -> imaging.Frame:
    if args.image.endswith(".rgb565"):
        if args.width is None or args.height is None:
            raise ValueError("raw .rgb565 input needs --width and --height")
        return imaging.read_rgb565(args.image, args.width, args.height)
    return imaging.read_ppm(args.image)


@contextmanager
def _flags(*names):
    """Prefix a ValueError raised in the block with the flags it concerns."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{', '.join(names)}: {e}") from None


def cmd_design(args) -> int:
    with _flags("--k", "--tau"):
        plant = PlantModel(args.k, args.tau)
    with _flags("--ts", "--po"):
        spec = LoopSpec(args.ts, args.po)
    # an infeasible spec or gains that overflow come from all four values
    with _flags("--k", "--tau", "--ts", "--po"):
        gains, diag = design_gains(plant, spec)
    print(f"kp: {gains.kp:.6g}")
    print(f"ki: {gains.ki:.6g}")
    print(f"xi: {diag.xi:.6g}")
    print(f"wn: {diag.wn:.6g}")
    print(f"poles: {diag.poles[0]:.6g}, {diag.poles[1]:.6g}")
    if args.csv:
        imaging.rewrite(args.csv, b"kp,ki,xi,wn\n%.9g,%.9g,%.9g,%.9g\n"
                        % (gains.kp, gains.ki, diag.xi, diag.wn))
    return 0


def _pick_color(text: str) -> tuple[int, int, int]:
    """`parse_color` for an argparse flag, which shows only this error type."""
    try:
        return cfgmod.parse_color(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def cmd_segment(args) -> int:
    s = _scenario_from_args(args)
    frame = _load_frame(args)
    with _flags("--pick"):
        threshold = s.picked_threshold(args.pick)
    mask = segmentation.segment_rgb(frame, threshold)
    if args.mask_out:
        segmentation.write_pbm(mask, args.mask_out)
    if args.words_out:
        segmentation.write_mask_words(mask, args.words_out)
    reg = locate(mask, ScanParams(s.min_width))
    if reg is None:
        print("no region found")
    else:
        print(reg.report_line())
    return 0


def cmd_run(args) -> int:
    """track and clock: run the scenario, save it and print its report."""
    rec, metrics = run_scenario(_scenario_from_args(args, args.base))
    if args.csv:
        harness.write_csv(rec, args.csv)
    if args.report:
        harness.write_report(metrics, args.report)
    for line in metrics.report_lines()[args.first_line:]:
        print(line)
    return 0


def cmd_sweep(args) -> int:
    scenario = _scenario_from_args(args)
    # a colour that renders black in full light is at fault at any level
    replace(scenario, illumination=1.0, mode="chroma").picked_threshold()
    with _flags("--levels"):
        # the thresholds are picked at the first level
        result = run_illumination_sweep(scenario, tuple(args.levels))
    lines = result.report_lines()
    for line in lines:
        print(line)
    if args.out:
        imaging.rewrite(args.out, ("\n".join(lines) + "\n").encode())
    return 0


def cmd_render(args) -> int:
    scenario = _scenario_from_args(args)
    with _flags("--time"):
        if not math.isfinite(args.time):
            raise ValueError(f"must be finite, got {args.time}")
        scene = scenario.scene_at(args.time)
    frame = imaging.render(scene, CameraPose(), scenario.intrinsics)
    if args.out.endswith(".rgb565"):
        imaging.write_rgb565(frame, args.out)
    else:
        imaging.write_ppm(frame, args.out)
    print(f"wrote {frame.width}x{frame.height} frame to {args.out}")
    return 0


def _add_scenario_args(p) -> None:
    p.add_argument("--config", help="flat key = value scenario file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colortrack",
        description="Color-object detection, location, and tracking simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="PI gains from pole placement")
    p.add_argument("--k", type=float, required=True, help="plant gain")
    p.add_argument("--tau", type=float, required=True, help="time constant, s")
    p.add_argument("--ts", type=float, required=True, help="settling time, s")
    p.add_argument("--po", type=float, required=True, help="overshoot, %%")
    p.add_argument("--csv", help="also write results as CSV")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("segment", help="segment an image and report the region")
    p.add_argument("image", help="PPM (P6) or raw .rgb565 input")
    p.add_argument("--width", type=int, help="raw input width")
    p.add_argument("--height", type=int, help="raw input height")
    p.add_argument("--pick", type=_pick_color, required=True,
                   help="picked color R,G,B (8-bit)")
    _add_scenario_args(p)
    p.add_argument("--mask-out", help="write mask as PBM (P4)")
    p.add_argument("--words-out", help="write raw packed mask words")
    p.set_defaults(func=cmd_segment)

    # clock prints only its radius, spread and lost frames
    for name, about, base, first_line in (
            ("track", "closed-loop tracking scenario", Scenario(), 0),
            ("clock", "circular motion with tracking disabled",
             harness.CLOCK_SCENARIO, 2)):
        p = sub.add_parser(name, help=about)
        _add_scenario_args(p)
        p.add_argument("--csv", help="write per-frame trajectory CSV")
        p.add_argument("--report", help="write metrics report")
        p.set_defaults(func=cmd_run, base=base, first_line=first_line)

    p = sub.add_parser("sweep", help="illumination sweep, both segmenters")
    _add_scenario_args(p)
    p.add_argument("--levels", type=float, nargs="+",
                   default=harness.SWEEP_LEVELS)
    p.add_argument("--out", help="write the sweep table to a file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="render one synthetic frame")
    _add_scenario_args(p)
    p.add_argument("--time", type=float, default=0.0,
                   help="trajectory time of the frame, s")
    p.add_argument("--out", required=True, help=".ppm or .rgb565 output")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
