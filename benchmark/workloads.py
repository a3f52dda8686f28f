"""The benchmark's three workloads and the inputs each one is made from.

Every workload is a closed loop driven from one process: the next frame (or
still) starts when the previous one has finished. A round is the unit the
timed loop repeats: one whole scenario run, or one pass over all stills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from colortrack import harness, imaging, region, segmentation
from colortrack.control import LoopSpec
from colortrack.harness import ObjectMotion, Scenario
from colortrack.imaging import Scene, Shape
from colortrack.plant import CameraIntrinsics, CameraPose
from colortrack.region import ScanParams

# Acceptance criterion 7: the object starts in the corner, tracking is on.
SETTLE_TARGET_S = 1.6
OVERSHOOT_TARGET_PCT = 5.0
STEP_TRACK = Scenario(
    kind="step_track", duration=5.0,
    spec=LoopSpec(ts=SETTLE_TARGET_S, po=OVERSHOOT_TARGET_PCT),
    motion=ObjectMotion(az=20.0, el=15.0))

# Acceptance criterion 8: two revolutions of an open-loop circle.
CLOCK_RADIUS_PX = 87.57
CLOCK_PERIOD_S = 3.82
CLOCK_MOTION = Scenario(
    kind="clock_motion", duration=2 * CLOCK_PERIOD_S,
    motion=ObjectMotion(kind="circular",
                        radius=CLOCK_RADIUS_PX / Scenario().intrinsics.ppd_x,
                        period=CLOCK_PERIOD_S))

VGA = CameraIntrinsics(width=640, height=480, ppd_x=16.0, ppd_y=16.0)
STILLS = 24
KINDS = ("disk", "rectangle", "triangle")
PALETTE = ((230, 120, 30), (40, 200, 60), (50, 90, 220),
           (220, 40, 160), (240, 220, 40), (40, 210, 210))


class ClosedLoop:
    """A stock scenario run by `harness.run_scenario`; its inputs are fixed."""

    def __init__(self, name: str, scenario: Scenario):
        self.name = name
        self.scenario = scenario

    def round(self, marks, span):
        """One whole run. `marks` is clocked by the patched render call."""
        with span("harness.run"):
            result = harness.run_scenario(self.scenario)
        marks.mark()
        return result

    def lost(self, result) -> int:
        return result[1].lost_frames

    def check(self, result) -> dict:
        return {}  # lost frames are failures, not gate mismatches

    def first_operation(self):
        """The first frame of the same scenario, for the set-up time."""
        harness.run_scenario(replace(self.scenario,
                                     duration=self.scenario.sample_time))

    def probe_spec(self) -> dict:
        return {}

    def simulated(self, result) -> dict:
        """Deterministic simulated results: (value, unit) by metric name."""
        metrics = result[1]
        if self.name == "step_track":
            settle = metrics.settling_time
            settle_err = (self.scenario.duration if settle is None
                          else abs(settle - SETTLE_TARGET_S))
            return {
                "settle_err_s": (settle_err, "s"),
                "overshoot_err_pct": (
                    abs(metrics.overshoot_pct - OVERSHOOT_TARGET_PCT), "%"),
            }
        return {
            "radius_err_px": (
                abs(metrics.mean_radius - CLOCK_RADIUS_PX), "px"),
            "radius_std_px": (metrics.radius_std, "px"),
        }


@dataclass(frozen=True)
class Still:
    """One offline input: the file, the user's pick, and the true region."""

    path: str
    pick: tuple[int, int, int]
    mode: str
    pixel_count: int
    centroid: tuple[float, float]


def make_stills(seed: int, directory: Path) -> list[Still]:
    """Write STILLS seeded 640x480 PPM stills, one large shape in each."""
    rng = np.random.default_rng(seed)
    half_w = VGA.width / 2 / VGA.ppd_x  # half the field of view, degrees
    half_h = VGA.height / 2 / VGA.ppd_y
    pose = CameraPose()
    stills = []
    for i in range(STILLS):
        # One size from each of STILLS equal strata of 6-20 degrees, so the
        # mix of object areas, which sets the fill's cost, barely moves
        # with the seed.
        size = 6.0 + 14.0 * (i + rng.uniform()) / STILLS
        az = rng.uniform(-1.0, 1.0) * (half_w - size / 2 - 0.5)
        el = rng.uniform(-1.0, 1.0) * (half_h - size / 2 - 0.5)
        color = PALETTE[int(rng.integers(len(PALETTE)))]
        gray = int(rng.integers(8, 41))
        light = float(rng.uniform(0.5, 1.0))
        shape = Shape(KINDS[i % len(KINDS)], float(az), float(el), size, color)
        frame = imaging.render(Scene((gray,) * 3, (shape,), light), pose, VGA)
        path = directory / f"still{i:02d}.ppm"
        imaging.write_ppm(frame, path)
        # The rendered object color, as a user picking it on screen sees it.
        pick = imaging.widen(imaging.narrow(*(int(light * c) for c in color)))
        solo = imaging.render(
            Scene((0, 0, 0), (replace(shape, color=(255, 255, 255)),), 1.0),
            pose, VGA)
        ys, xs = np.nonzero(solo.pixels)
        n = len(xs)
        stills.append(Still(str(path), pick, ("chroma", "rgb")[i % 2], n,
                            (int(xs.sum()) / n, int(ys.sum()) / n)))
    return stills


def segment_still(still: Still, mask_path) -> region.RegionDescriptor | None:
    """`colortrack segment` as library calls, with the flood fill on.

    Calls go through module attributes so the tracer's patches reach them.
    """
    frame = imaging.read_ppm(still.path)
    threshold = segmentation.threshold_from_pick(still.pick, still.mode)
    segment = (segmentation.segment_chroma if still.mode == "chroma"
               else segmentation.segment_rgb)
    mask = segment(frame, threshold)
    segmentation.write_pbm(mask, mask_path)
    return region.locate(mask, ScanParams(), fill_count=True)


class OfflineVga:
    """Seeded VGA stills through the offline segment pipeline."""

    name = "offline_vga"

    def __init__(self, stills: list[Still], mask_path):
        self.stills = stills
        self.mask_path = mask_path

    def round(self, marks, span):
        """One pass over every still; each operation is one frame."""
        results = []
        for still in self.stills:
            marks.mark()
            with span("bench.op"):
                results.append(segment_still(still, self.mask_path))
        marks.mark()
        return results

    def lost(self, result) -> int:
        return sum(1 for reg in result if reg is None)

    def check(self, result) -> dict:
        """Each found region's pixel count and centroid are the shape's.

        Returns a problem message by frame number, counting from 1.
        """
        problems = {}
        for number, (still, reg) in enumerate(zip(self.stills, result), 1):
            if reg is None:
                continue
            if (reg.pixel_count, (reg.centroid_x, reg.centroid_y)) != \
                    (still.pixel_count, still.centroid):
                problems[number] = (
                    f"{Path(still.path).name}: region has {reg.pixel_count} px"
                    f" at ({reg.centroid_x}, {reg.centroid_y}), shape has "
                    f"{still.pixel_count} px at {still.centroid}")
        return problems

    def first_operation(self):
        segment_still(self.stills[0], self.mask_path)

    def probe_spec(self) -> dict:
        still = self.stills[0]
        return {"path": still.path, "pick": list(still.pick),
                "mode": still.mode, "mask_path": str(self.mask_path)}

    def simulated(self, result) -> dict:
        return {}


def make(name: str, seed: int, out_dir: Path):
    """Build a workload; offline_vga writes its stills into out_dir."""
    if name == "step_track":
        return ClosedLoop(name, STEP_TRACK)
    if name == "clock_motion":
        return ClosedLoop(name, CLOCK_MOTION)
    if name == "offline_vga":
        return OfflineVga(make_stills(seed, out_dir), out_dir / "mask.pbm")
    raise ValueError(f"unknown workload {name!r}")


def from_probe_spec(name: str, spec: dict):
    """Rebuild a workload in the set-up probe from already written inputs."""
    if name != "offline_vga":
        return make(name, 0, Path("."))
    still = Still(spec["path"], tuple(spec["pick"]), spec["mode"], 0,
                  (math.nan, math.nan))
    return OfflineVga([still], spec["mask_path"])


WORKLOADS = ("step_track", "clock_motion", "offline_vga")
