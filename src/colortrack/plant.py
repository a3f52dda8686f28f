"""Pan-tilt platform simulation and the pixel-space camera projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .control import PlantModel
from .region import RegionDescriptor

@dataclass(frozen=True)
class PlantState:
    """Current output angle of one first-order servo axis."""

    angle: float = 0.0  # degrees
    limits: Optional[tuple[float, float]] = None  # mechanical end stops


@dataclass(frozen=True)
class CameraPose:
    pan: float = 0.0  # degrees
    tilt: float = 0.0  # degrees


@dataclass(frozen=True)
class CameraIntrinsics:
    """Linear pixels-per-degree projection; no lens model.

    Tracking keeps the object near the frame center where the small-angle
    linearization is accurate. Defaults give a 40x30 degree field of view
    at QVGA.
    """

    width: int = 320
    height: int = 240
    ppd_x: float = 8.0
    ppd_y: float = 8.0

    def __post_init__(self):
        if min(self.width, self.height) <= 0:
            raise ValueError("frame width and height must be > 0")
        if not all(math.isfinite(p) and p > 0 for p in (self.ppd_x, self.ppd_y)):
            raise ValueError("pixels per degree must be finite and > 0")


def plant_step(state: PlantState, model: PlantModel, u: float,
               t: float) -> PlantState:
    """Advance one axis by one sampling period under a held command.

    Exact zero-order-hold discretization of tau*dx/dt = K*u - x:
    x+ = a*x + (1 - a)*K*u with a = exp(-t/tau), then the mechanical clamp.
    """
    if t <= 0:
        raise ValueError("time step must be > 0")
    a = math.exp(-t / model.tau)
    x = a * state.angle + (1.0 - a) * model.k * u
    if state.limits is not None:
        x = min(max(x, state.limits[0]), state.limits[1])
    return PlantState(angle=x, limits=state.limits)


def project(object_az: float, object_el: float, pose: CameraPose,
            intr: CameraIntrinsics) -> Optional[tuple[int, int]]:
    """Pixel position of an angular direction, or None when out of view."""
    x = round(intr.width / 2 + (object_az - pose.pan) * intr.ppd_x)
    y = round(intr.height / 2 + (object_el - pose.tilt) * intr.ppd_y)
    if not (0 <= x < intr.width and 0 <= y < intr.height):
        return None
    return x, y


def error_px(region: RegionDescriptor,
             intr: CameraIntrinsics) -> tuple[float, float]:
    """Detected-center offset from the middle of the field of view."""
    return (region.center_x - intr.width / 2,
            region.center_y - intr.height / 2)
