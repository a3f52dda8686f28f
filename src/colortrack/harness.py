"""Scenario engine, metrics, and persistence for batch tracking simulations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import imaging
from .control import (ControllerState, LoopSpec, PlantModel, design_gains,
                      discretize, pi_step)
from .imaging import Frame, Scene, Shape, render, widen
from .plant import CameraIntrinsics, CameraPose, PlantState, error_px, plant_step
from .region import ScanParams, locate
from .segmentation import (ChromaThreshold, PackedBinaryMask, segment_chroma,
                           segment_rgb, threshold_from_pick)

DEFAULT_SAMPLE_TIME = 1.0 / 10.9  # controller runs once per acquired frame

SCENARIO_KINDS = ("step_track", "clock_motion", "illumination_sweep",
                  "multi_object", "segment_only")


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
        if self.kind == "circular" and self.period <= 0:
            raise ValueError("circular motion period must be > 0")

    def at(self, t: float) -> tuple[float, float]:
        if self.kind == "fixed":
            return self.az, self.el
        w = 2.0 * math.pi * t / self.period + math.radians(self.phase)
        return (self.az + self.radius * math.cos(w),
                self.el + self.radius * math.sin(w))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one batch simulation deterministically."""

    kind: str = "step_track"
    duration: float = 5.0  # seconds
    sample_time: float = DEFAULT_SAMPLE_TIME
    seed: int = 0
    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    # Both axes default to the same first-order model; the stock controller
    # spec below requires ts <= 8*tau on each axis.
    pan_model: PlantModel = field(default_factory=lambda: PlantModel(1.0, 0.2))
    tilt_model: PlantModel = field(default_factory=lambda: PlantModel(1.0, 0.2))
    spec: LoopSpec = field(default_factory=lambda: LoopSpec(ts=1.6, po=5.0))
    motion: ObjectMotion = field(default_factory=ObjectMotion)
    background: tuple[int, int, int] = (16, 16, 16)
    object_color: tuple[int, int, int] = (230, 120, 30)
    object_kind: str = "disk"
    object_size: float = 4.0  # angular diameter, degrees
    illumination: float = 1.0
    mode: str = "chroma"  # segmentation space; chroma is the reliable default
    rgb_margin: int = 24
    chroma_margin: float = 0.05
    i_min: int = 30
    min_width: int = 3
    u_min: float = -45.0
    u_max: float = 45.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: {self.kind!r}")
        for name in ("duration", "sample_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def tracking(self) -> bool:
        return self.kind == "step_track"

    def scene_at(self, t: float) -> Scene:
        az, el = self.motion.at(t)
        shape = Shape(self.object_kind, az, el, self.object_size,
                      self.object_color)
        return Scene(self.background, (shape,), self.illumination)

    def picked_threshold(self, mode: Optional[str] = None):
        """Threshold from the object's rendered color at full illumination.

        Mirrors picking the target on screen: the pick is the quantized
        pixel value, not the nominal scene color.
        """
        mode = mode or self.mode
        lit = tuple(int(self.illumination * c) for c in self.object_color)
        pick = widen(imaging.narrow(*lit))
        return threshold_from_pick(pick, mode, rgb_margin=self.rgb_margin,
                                   chroma_margin=self.chroma_margin,
                                   i_min=self.i_min)

    def segment(self, frame: Frame, threshold) -> PackedBinaryMask:
        if isinstance(threshold, ChromaThreshold):
            return segment_chroma(frame, threshold)
        return segment_rgb(frame, threshold)


@dataclass(frozen=True, slots=True)
class TrajectoryRow:
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


@dataclass
class TrajectoryRecord:
    rows: list[TrajectoryRow] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


@dataclass(frozen=True)
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
    scenario and seed.
    """
    intr = s.intrinsics
    threshold = s.picked_threshold()
    params = ScanParams(s.min_width)

    # The controller acts on pixel error while the plant moves in degrees,
    # so the loop gain seen by the controller includes pixels-per-degree.
    # The spec's poles are placed at the frame period the loop runs at, so
    # the sampled loop, not its continuous limit, meets the spec.
    coeffs_x = coeffs_y = None
    if s.tracking:
        gx, _ = design_gains(PlantModel(s.pan_model.k * intr.ppd_x,
                                        s.pan_model.tau), s.spec,
                             s.sample_time)
        gy, _ = design_gains(PlantModel(s.tilt_model.k * intr.ppd_y,
                                        s.tilt_model.tau), s.spec,
                             s.sample_time)
        coeffs_x = discretize(gx, s.sample_time)
        coeffs_y = discretize(gy, s.sample_time)

    cs_x = ControllerState(t=s.sample_time, u_min=s.u_min, u_max=s.u_max)
    cs_y = ControllerState(t=s.sample_time, u_min=s.u_min, u_max=s.u_max)
    pan = PlantState()
    tilt = PlantState()
    ux = uy = 0.0

    rec = TrajectoryRecord()
    n_frames = int(round(s.duration / s.sample_time))
    for k in range(n_frames):
        t = k * s.sample_time
        pose = CameraPose(pan.angle, tilt.angle)
        frame = render(s.scene_at(t), pose, intr)
        mask = s.segment(frame, threshold)
        reg = locate(mask, params)
        if reg is not None:
            ex, ey = error_px(reg, intr)
            cx, cy = reg.center_x, reg.center_y
            if s.tracking:
                ux, cs_x = pi_step(cs_x, coeffs_x, ex)
                uy, cs_y = pi_step(cs_y, coeffs_y, ey)
            found = True
        else:
            ex = ey = math.nan
            cx = cy = -1
            found = False  # hold the last command
        rec.rows.append(TrajectoryRow(t, ex, ey, ux, uy,
                                      pan.angle, tilt.angle, cx, cy, found))
        if s.tracking:
            pan = plant_step(pan, s.pan_model, ux, s.sample_time)
            tilt = plant_step(tilt, s.tilt_model, uy, s.sample_time)
    return rec, compute_metrics(rec)


def settling_time(rec: TrajectoryRecord, band: float) -> Optional[float]:
    """Earliest time after which both error components stay within the band."""
    if band <= 0:
        raise ValueError("band must be > 0")
    if not rec.rows:
        return None
    ex = rec.column("ex")
    ey = rec.column("ey")
    # NaN (lost frames) counts as outside the band.
    outside = ~((np.abs(ex) <= band) & (np.abs(ey) <= band))
    if not outside.any():
        return 0.0
    last = int(np.flatnonzero(outside)[-1])
    if last == len(rec.rows) - 1:
        return None
    return rec.rows[last + 1].t


def default_band(rec: TrajectoryRecord) -> float:
    """2% of the initial error magnitude, floored at 3 px."""
    first = next((r for r in rec.rows if r.found), None)
    if first is None:
        return 3.0
    return max(3.0, 0.02 * math.hypot(first.ex, first.ey))


def _overshoot_pct(t: np.ndarray, e0: float) -> float:
    if e0 == 0 or not np.isfinite(e0):
        return 0.0
    past = -np.sign(e0) * t[np.isfinite(t)]
    return 100.0 * max(0.0, float(past.max())) / abs(e0)


def compute_metrics(rec: TrajectoryRecord) -> TrackingMetrics:
    lost = sum(1 for r in rec.rows if not r.found)
    settle = settling_time(rec, default_band(rec)) if rec.rows else None
    first = next((r for r in rec.rows if r.found), None)
    over = 0.0
    if first is not None:
        over = max(_overshoot_pct(rec.column("ex"), first.ex),
                   _overshoot_pct(rec.column("ey"), first.ey))
    centers = [(r.cx, r.cy) for r in rec.rows if r.found]
    if len(centers) >= 3:
        mean_r, std_r = circle_stats(centers)
    else:
        mean_r = std_r = 0.0
    return TrackingMetrics(settling_time=settle, overshoot_pct=over,
                           mean_radius=mean_r, radius_std=std_r,
                           lost_frames=lost)


def circle_stats(centers: list[tuple[float, float]]) -> tuple[float, float]:
    """Mean radius and population std of points around their mean center."""
    if len(centers) < 3:
        raise ValueError("need at least 3 points")
    pts = np.asarray(centers, dtype=float)
    center = pts.mean(axis=0)
    radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    return float(radii.mean()), float(radii.std())


CSV_HEADER = "t,ex,ey,ux,uy,pan,tilt,cx,cy,found"


def write_csv(rec: TrajectoryRecord, path) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for r in rec.rows:
            f.write("%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%d,%d,%d\n"
                    % (r.t, r.ex, r.ey, r.ux, r.uy, r.pan, r.tilt,
                       r.cx, r.cy, int(r.found)))


def read_csv(path) -> TrajectoryRecord:
    rec = TrajectoryRecord()
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in f:
            v = line.strip().split(",")
            if len(v) != 10:
                raise ValueError(f"bad CSV row: {line!r}")
            rec.rows.append(TrajectoryRow(
                float(v[0]), float(v[1]), float(v[2]), float(v[3]),
                float(v[4]), float(v[5]), float(v[6]), int(v[7]),
                int(v[8]), bool(int(v[9]))))
    return rec


def write_report(metrics: TrackingMetrics, path) -> None:
    with open(path, "w") as f:
        for line in metrics.report_lines():
            f.write(line + "\n")


@dataclass(frozen=True)
class SweepResult:
    levels: tuple[float, ...]
    chroma_counts: tuple[int, ...]
    rgb_counts: tuple[int, ...]

    def retention(self, method: str) -> tuple[float, ...]:
        counts = self.chroma_counts if method == "chroma" else self.rgb_counts
        ref = max(counts[0], 1)
        return tuple(c / ref for c in counts)

    def report_lines(self) -> list[str]:
        lines = ["level,chroma_pixels,rgb_pixels"]
        for lv, c, r in zip(self.levels, self.chroma_counts, self.rgb_counts):
            lines.append("%.6g,%d,%d" % (lv, c, r))
        return lines


def run_illumination_sweep(s: Scenario,
                           levels=(1.0, 0.8, 0.6, 0.4)) -> SweepResult:
    """Render the scene at several light levels and count surviving pixels.

    Both thresholds are picked once at the first (brightest) level, then
    applied unchanged across the sweep.
    """
    base = replace(s, illumination=levels[0])
    chroma_t = base.picked_threshold("chroma")
    rgb_t = base.picked_threshold("rgb")
    pose = CameraPose()
    chroma_counts = []
    rgb_counts = []
    for lv in levels:
        frame = render(replace(s, illumination=lv).scene_at(0.0),
                       pose, s.intrinsics)
        chroma_counts.append(segment_chroma(frame, chroma_t).count())
        rgb_counts.append(segment_rgb(frame, rgb_t).count())
    return SweepResult(tuple(levels), tuple(chroma_counts), tuple(rgb_counts))


def run_multi_object(s: Scenario, objects: list[Shape]):
    """Detect each of several similar-hue objects via its own picked threshold.

    Returns, per object, the located descriptor and the object's true pixel
    bounding box from an exact coverage render.
    """
    scene = Scene(s.background, tuple(objects), s.illumination)
    pose = CameraPose()
    frame = render(scene, pose, s.intrinsics)
    results = []
    for shape in objects:
        threshold = replace(s, object_color=shape.color).picked_threshold()
        mask = s.segment(frame, threshold)
        reg = locate(mask, ScanParams(s.min_width))
        marker = Shape(shape.kind, shape.az, shape.el, shape.size,
                       (255, 255, 255))
        solo = render(Scene((0, 0, 0), (marker,), 1.0), pose, s.intrinsics)
        covered = np.argwhere(solo.pixels != 0)
        bbox = None
        if covered.size:
            bbox = (int(covered[:, 0].min()), int(covered[:, 0].max()),
                    int(covered[:, 1].min()), int(covered[:, 1].max()))
        results.append((shape, reg, bbox))
    return results
