"""Scenario engine, metrics, and persistence for batch tracking simulations."""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import NamedTuple, Optional

import numpy as np

from . import imaging
from .control import (ControllerState, LoopSpec, PlantModel, design_gains,
                      discretize, feasible, pi_step, sampled_feasible)
from .imaging import SHAPE_KINDS, Frame, Scene, Shape, render, widen
from .plant import CameraIntrinsics, CameraPose, error_px, plant_step
from .region import ScanParams, locate
# segment_chroma is imported only for benchmark/tracer.py PATCHES to wrap.
from .segmentation import (CHROMA_MARGIN, RGB_MARGIN, THRESHOLD_MODES,
                           ChromaThreshold, segment_chroma, segment_rgb,
                           threshold_from_pick)

DEFAULT_SAMPLE_TIME = 1.0 / 10.9  # controller runs once per acquired frame

SCENARIO_KINDS = ("step_track", "clock_motion")

SWEEP_LEVELS = (1.0, 0.8, 0.6, 0.4)  # illumination levels, brightest first


def _positive(v) -> bool:
    return math.isfinite(v) and v > 0


def _color(v) -> bool:
    return isinstance(v, Sequence) and len(v) == 3 and all(
        isinstance(c, Real) and 0 <= c <= 255 for c in v)


# Every Scenario rule: (fields, test of their values, error). A field's own
# rule comes before any rule that divides by it.
SCENARIO_RULES = (
    (("kind",), SCENARIO_KINDS.__contains__,
     "kind must be one of " + ", ".join(SCENARIO_KINDS)),
    (("duration",), _positive, "duration must be finite and > 0"),
    (("sample_time",), _positive, "sample_time must be finite and > 0"),
    *(((name,), _color, f"{name} must be three real numbers in [0, 255]")
      for name in ("background", "object_color")),
    (("object_kind",), SHAPE_KINDS.__contains__,
     "object_kind must be one of " + ", ".join(SHAPE_KINDS)),
    (("object_size",), _positive, "object_size must be finite and > 0"),
    (("illumination",), lambda v: 0.0 <= v <= 1.0,
     "illumination must be in [0, 1]"),
    (("mode",), THRESHOLD_MODES.__contains__,
     "mode must be one of " + ", ".join(THRESHOLD_MODES)),
    (("rgb_margin",), lambda v: v >= 0, "rgb_margin must be >= 0"),
    (("chroma_margin",), lambda v: v >= 0, "chroma_margin must be >= 0"),
    (("i_min",), lambda v: v >= 1, "i_min must be >= 1"),
    (("min_width",), lambda v: v >= 1, "min_width must be >= 1"),
    # each axis's command starts at 0, so the limits must bracket it
    (("u_min",), lambda v: v <= 0, "u_min must be <= 0"),
    (("u_max",), lambda v: v >= 0, "u_max must be >= 0"),
    (("u_min", "u_max"), lambda lo, hi: lo < hi, "u_min must be < u_max"),
    (("duration", "sample_time"), lambda d, t: math.isfinite(d / t),
     "duration must be a finite number of frames of sample_time"),
    (("duration", "sample_time"), lambda d, t: round(d / t) >= 1,
     "duration must round to at least one frame of sample_time"),
    (("kind", "spec", "pan_model", "tilt_model"),
     lambda kind, spec, *models: kind != "step_track" or all(
         feasible(m, spec) for m in models),
     "infeasible spec: step_track needs ts <= 8*tau on both axes"),
    # each axis's controller sees the plant k*ppd pixels per unit command
    (("kind", "spec", "sample_time", "intrinsics", "pan_model", "tilt_model"),
     lambda kind, spec, t, intr, *models: kind != "step_track" or all(
         _positive(m.k * ppd) and sampled_feasible(
             PlantModel(m.k * ppd, m.tau), spec, t)
         for m, ppd in zip(models, (intr.ppd_x, intr.ppd_y))),
     "degenerate sampled plant: step_track needs a nonzero, finite "
     "b = (1 - exp(-sample_time/tau))*k*ppd and finite PI coefficients on "
     "both axes"),
    # the angle grows with t, so the last frame's is the largest
    (("duration", "sample_time", "motion"),
     lambda d, t, m: m.kind != "circular" or math.isfinite(
         m.angle((round(d / t) - 1) * t)),
     "circular motion's angle at the last frame must be finite"),
)


@dataclass(frozen=True)
class ObjectMotion:
    """Parametric angular trajectory of the tracked object."""

    kind: str = "fixed"  # fixed | circular
    az: float = 0.0  # degrees (circle center for circular motion)
    el: float = 0.0
    radius: float = 0.0  # angular radius, degrees
    period: float = 1.0  # seconds per revolution
    phase: float = 0.0  # degrees

    def __post_init__(self):
        if self.kind not in ("fixed", "circular"):
            raise ValueError(f"unknown motion kind: {self.kind!r}")
        if not all(map(math.isfinite,
                       (self.az, self.el, self.radius, self.phase))):
            raise ValueError("motion az, el, radius and phase must be finite")
        if self.kind == "circular" and not (math.isfinite(self.period)
                                            and self.period > 0):
            raise ValueError("circular motion period must be finite and > 0")

    def angle(self, t: float) -> float:
        """Radians around the circle at time t."""
        return 2.0 * math.pi * t / self.period + math.radians(self.phase)

    def at(self, t: float) -> tuple[float, float]:
        if self.kind == "fixed":
            return self.az, self.el
        w = self.angle(t)
        return (self.az + self.radius * math.cos(w),
                self.el + self.radius * math.sin(w))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one batch simulation deterministically."""

    kind: str = "step_track"
    duration: float = 5.0  # seconds
    sample_time: float = DEFAULT_SAMPLE_TIME
    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    # Both axes default to the same first-order model; the stock controller
    # spec below requires ts <= 8*tau on each axis.
    pan_model: PlantModel = field(default_factory=lambda: PlantModel(1.0, 0.2))
    tilt_model: PlantModel = field(default_factory=lambda: PlantModel(1.0, 0.2))
    spec: LoopSpec = field(default_factory=lambda: LoopSpec(ts=1.6, po=5.0))
    motion: ObjectMotion = field(default_factory=ObjectMotion)
    background: tuple[int, int, int] = Scene.background
    object_color: tuple[int, int, int] = (230, 120, 30)
    object_kind: str = "disk"
    object_size: float = 4.0  # angular diameter, degrees
    illumination: float = 1.0
    mode: str = "chroma"  # segmentation space; chroma is the reliable default
    rgb_margin: int = RGB_MARGIN
    chroma_margin: float = CHROMA_MARGIN
    i_min: int = ChromaThreshold.i_min
    min_width: int = ScanParams.min_width
    u_min: float = -45.0
    u_max: float = 45.0

    def __post_init__(self):
        for names, ok, error in SCENARIO_RULES:
            if not ok(*(getattr(self, name) for name in names)):
                raise ValueError(error)

    @property
    def n_frames(self) -> int:
        return int(round(self.duration / self.sample_time))

    def scene_at(self, t: float) -> Scene:
        az, el = self.motion.at(t)
        shape = Shape(self.object_kind, az, el, self.object_size,
                      self.object_color)
        return Scene(self.background, (shape,), self.illumination)

    def picked_threshold(self, pick: Optional[tuple[int, int, int]] = None):
        """Threshold of this scenario's mode, margins and i_min around a pick.

        The default pick is the object's colour as rendered at the
        scenario's illumination, as picking the target on screen gives it:
        the quantized pixel value, not the nominal scene colour. When that
        pixel is black in chroma mode, the error names the two fields.
        """
        if pick is None:
            lit = imaging._lit(self.object_color, self.illumination)
            pick = widen(imaging.narrow(*lit))
            if self.mode == "chroma" and not any(pick):
                raise ValueError(
                    f"object_color {self.object_color} at illumination "
                    f"{self.illumination:g}: cannot derive a chroma "
                    "threshold from a black pick")
        return threshold_from_pick(pick, self.mode, rgb_margin=self.rgb_margin,
                                   chroma_margin=self.chroma_margin,
                                   i_min=self.i_min)


# The clock test's base: a circle of 87.57 px at the default 8 px/deg and
# 3.82 s a revolution, run for two whole revolutions so that the mean of the
# detected centres is the circle's centre.
CLOCK_SCENARIO = Scenario(
    kind="clock_motion", duration=7.64,
    motion=ObjectMotion(kind="circular", radius=87.57 / 8.0, period=3.82))


class TrajectoryRow(NamedTuple):
    """One frame of a run; its fields are the trajectory CSV's columns."""

    t: float
    ex: float
    ey: float
    ux: float
    uy: float
    pan: float
    tilt: float
    cx: int
    cy: int
    found: bool


_ROW_WIDTH = len(TrajectoryRow._fields)


class TrajectoryRecord:
    """The rows of one run, packed ten doubles a row into one array('d').

    A row is rebuilt as a TrajectoryRow only when it is indexed, and
    iteration indexes rows until IndexError; the integer and boolean
    fields are exact in a double. The repr shows every value exactly, so
    two runs with the same lost (NaN) frames have the same repr.
    """

    __slots__ = ("_values",)

    def __init__(self):
        self._values = array("d")

    def append(self, row: TrajectoryRow) -> None:
        self._values.extend(row)

    def __len__(self) -> int:
        return len(self._values) // _ROW_WIDTH

    def __getitem__(self, i: int) -> TrajectoryRow:
        i = range(len(self))[i]  # negative from the end; IndexError past it
        v = self._values[i * _ROW_WIDTH:(i + 1) * _ROW_WIDTH]
        return TrajectoryRow(*v[:7], int(v[7]), int(v[8]), bool(v[9]))

    def __repr__(self) -> str:
        return f"TrajectoryRecord({self._values!r})"

    def column(self, name: str) -> np.ndarray:
        """One field of every row, as a float array."""
        j = TrajectoryRow._fields.index(name)
        return np.frombuffer(self._values)[j::_ROW_WIDTH].copy()


@dataclass(frozen=True, slots=True)
class TrackingMetrics:
    settling_time: Optional[float]  # None when the error never settles
    overshoot_pct: float
    mean_radius: float
    radius_std: float
    lost_frames: int

    def report_lines(self) -> list[str]:
        settled = ("not settled" if self.settling_time is None
                   else "%.6g" % self.settling_time)
        return [
            f"settling_time_s: {settled}",
            "overshoot_pct: %.6g" % self.overshoot_pct,
            "mean_radius_px: %.6g" % self.mean_radius,
            "radius_std_px: %.6g" % self.radius_std,
            f"lost_frames: {self.lost_frames}",
        ]


def run_scenario(s: Scenario) -> tuple[TrajectoryRecord, TrackingMetrics]:
    """Simulate the full loop: render, segment, locate, control, move.

    When the object is not found the controller holds its last command and
    the frame is flagged lost. Everything is deterministic for a fixed
    scenario.

    After a frame that found a region, the next frame is segmented and
    located only in its first `stop` rows, which end half the region's
    height below the region's bottom row. A region found there that ends
    above the crop's last row is the whole frame's region: the rows before
    `stop` are the same in the crop and in the frame, so the first
    qualifying run in raster order is the same run; and an 8-connected
    component occupies consecutive rows, so a component whose bottom row
    lies above the crop's last row cannot continue below it. Its limits,
    centre, contour and fill are therefore bit-identical. The whole frame
    is segmented when the crop finds no qualifying run, when the component
    reaches the crop's last row, on the first frame and after a lost one.
    """
    intr = s.intrinsics
    threshold = s.picked_threshold()
    params = ScanParams(s.min_width)
    # Each axis pair is (pan, tilt), as error_px and CameraPose read them.
    models = (s.pan_model, s.tilt_model)
    axes = (0, 1) if s.kind == "step_track" else ()

    # The controller acts on pixel error while the plant moves in degrees,
    # so the loop gain seen by the controller includes pixels-per-degree.
    # The spec's poles are placed at the frame period the loop runs at, so
    # the sampled loop, not its continuous limit, meets the spec.
    coeffs = []
    for i, ppd in zip(axes, (intr.ppd_x, intr.ppd_y)):
        gains, _ = design_gains(PlantModel(models[i].k * ppd, models[i].tau),
                                s.spec, s.sample_time)
        coeffs.append(discretize(gains, s.sample_time))

    states = [ControllerState(u_min=s.u_min, u_max=s.u_max)] * 2
    pose, u = [0.0, 0.0], [0.0, 0.0]  # degrees, command
    lost = (math.nan, math.nan)  # the error of a frame with no region
    rec = TrajectoryRecord()
    stop = intr.height  # rows the next frame is segmented down to
    for k in range(s.n_frames):
        t = k * s.sample_time
        frame = render(s.scene_at(t), CameraPose(pose[0], pose[1]), intr)
        reg = None
        if stop < intr.height:
            crop = Frame(intr.width, stop, frame.pixels[:stop])
            reg = locate(segment_rgb(crop, threshold), params)
            if reg is not None and reg.bottom == stop - 1:
                reg = None  # the component may continue below the crop
        if reg is None:
            reg = locate(segment_rgb(frame, threshold), params)
        if reg is None:
            stop = intr.height
            e, cx, cy = lost, -1, -1  # hold the last command
        else:
            e = error_px(reg, intr)
            cx, cy = reg.center_x, reg.center_y
            stop = min(intr.height,
                       reg.bottom + 1 + (reg.bottom - reg.top + 1) // 2)
            for i in axes:
                u[i], states[i] = pi_step(states[i], coeffs[i], e[i])
        rec.append(TrajectoryRow(t, e[0], e[1], u[0], u[1], pose[0], pose[1],
                                 cx, cy, reg is not None))
        for i in axes:
            pose[i] = plant_step(pose[i], models[i], u[i], s.sample_time)
    return rec, compute_metrics(rec)


def settling_time(rec: TrajectoryRecord, band: float) -> Optional[float]:
    """Earliest time after which both error components stay within the band;
    0 when no frame leaves it, in an empty record too."""
    if not band > 0:  # NaN too
        raise ValueError("band must be > 0")
    ex = rec.column("ex")
    ey = rec.column("ey")
    # NaN (lost frames) counts as outside the band.
    outside = ~((np.abs(ex) <= band) & (np.abs(ey) <= band))
    if not outside.any():
        return 0.0
    last = int(np.flatnonzero(outside)[-1])
    if last == len(rec) - 1:
        return None
    return float(rec.column("t")[last + 1])


def _first_found_error(rec: TrajectoryRecord) -> Optional[tuple[float, float]]:
    """(ex, ey) of the first frame that found the object, if any did."""
    found = np.flatnonzero(rec.column("found"))
    if not len(found):
        return None
    k = int(found[0])
    return float(rec.column("ex")[k]), float(rec.column("ey")[k])


def default_band(rec: TrajectoryRecord) -> float:
    """2% of the initial error magnitude, floored at 3 px."""
    first = _first_found_error(rec)
    if first is None:
        return 3.0
    return max(3.0, 0.02 * math.hypot(*first))


def _overshoot_pct(t: np.ndarray, e0: float) -> float:
    if e0 == 0 or not np.isfinite(e0):
        return 0.0
    past = -np.sign(e0) * t[np.isfinite(t)]
    return 100.0 * max(0.0, float(past.max())) / abs(e0)


def compute_metrics(rec: TrajectoryRecord) -> TrackingMetrics:
    found = rec.column("found") != 0
    n_found = int(found.sum())
    settle = settling_time(rec, default_band(rec))
    first = _first_found_error(rec)
    over = 0.0
    if first is not None:
        over = max(_overshoot_pct(rec.column("ex"), first[0]),
                   _overshoot_pct(rec.column("ey"), first[1]))
    if n_found >= 3:
        centers = np.column_stack((rec.column("cx")[found],
                                   rec.column("cy")[found]))
        mean_r, std_r = circle_stats(centers)
    else:
        mean_r = std_r = 0.0
    return TrackingMetrics(settling_time=settle, overshoot_pct=over,
                           mean_radius=mean_r, radius_std=std_r,
                           lost_frames=len(rec) - n_found)


def circle_stats(centers: Sequence[tuple[float, float]] | np.ndarray
                 ) -> tuple[float, float]:
    """Mean radius and population std of points around their mean center."""
    if len(centers) < 3:
        raise ValueError("need at least 3 points")
    pts = np.asarray(centers, dtype=float)
    center = pts.mean(axis=0)
    radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    return float(radii.mean()), float(radii.std())


CSV_HEADER = ",".join(TrajectoryRow._fields)
_CSV_ROW = "%.6g," * 7 + "%d,%d,%d\n"


def write_csv(rec: TrajectoryRecord, path) -> None:
    imaging.rewrite(path, (CSV_HEADER + "\n" + "".join(
        _CSV_ROW % row for row in rec)).encode())


def write_report(metrics: TrackingMetrics, path) -> None:
    imaging.rewrite(path, "".join(line + "\n" for line in
                                  metrics.report_lines()).encode())


@dataclass(frozen=True)
class SweepResult:
    levels: tuple[float, ...]
    chroma_counts: tuple[int, ...]
    rgb_counts: tuple[int, ...]

    def report_lines(self) -> list[str]:
        lines = ["level,chroma_pixels,rgb_pixels"]
        for lv, c, r in zip(self.levels, self.chroma_counts, self.rgb_counts):
            lines.append("%.6g,%d,%d" % (lv, c, r))
        return lines


def run_illumination_sweep(s: Scenario,
                           levels=SWEEP_LEVELS) -> SweepResult:
    """Render the scene at several light levels and count surviving pixels.

    Both thresholds are picked once at the first (brightest) level, then
    applied unchanged across the sweep.
    """
    if not levels:
        raise ValueError("levels must hold at least one illumination level")
    base = replace(s, illumination=levels[0])
    chroma_t = replace(base, mode="chroma").picked_threshold()
    rgb_t = replace(base, mode="rgb").picked_threshold()
    pose = CameraPose()
    chroma_counts = []
    rgb_counts = []
    for lv in levels:
        frame = render(replace(s, illumination=lv).scene_at(0.0),
                       pose, s.intrinsics)
        chroma_counts.append(segment_rgb(frame, chroma_t).count())
        rgb_counts.append(segment_rgb(frame, rgb_t).count())
    return SweepResult(tuple(levels), tuple(chroma_counts), tuple(rgb_counts))
