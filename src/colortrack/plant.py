"""Pan-tilt platform simulation and the camera's pixel geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .control import PlantModel
from .region import RegionDescriptor

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


def plant_step(angle: float, model: PlantModel, u: float, t: float) -> float:
    """Advance one axis's angle (degrees) by one period under a held command.

    Exact zero-order-hold discretization of tau*dx/dt = K*u - x:
    x+ = a*x + (1 - a)*K*u with a = exp(-t/tau).
    """
    if t <= 0:
        raise ValueError("time step must be > 0")
    a = math.exp(-t / model.tau)
    return a * angle + (1.0 - a) * model.k * u


def error_px(region: RegionDescriptor,
             intr: CameraIntrinsics) -> tuple[float, float]:
    """Detected-center offset from the middle of the field of view."""
    return (region.center_x - intr.width / 2,
            region.center_y - intr.height / 2)
