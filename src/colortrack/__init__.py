"""Simulated color-object detection, location, and pan-tilt tracking.

RGB565 imaging, two-color-space segmentation into bit-packed masks,
contour-based region description, and a pole-placement PI controller
closing the loop around a simulated pan-tilt camera platform.
"""

from .control import (ControllerState, DesignDiagnostics, IncrementalCoeffs,
                      LoopSpec, PiGains, PlantModel, damping_from_po,
                      design_gains, discretize, pi_step)
from .harness import (ObjectMotion, Scenario, TrackingMetrics,
                      TrajectoryRecord, circle_stats, run_scenario,
                      settling_time)
from .imaging import Frame, Scene, Shape, decode, encode, narrow, render, widen
from .plant import CameraIntrinsics, CameraPose, error_px, plant_step
from .region import RegionDescriptor, ScanParams, locate, trace_contour
from .segmentation import (ChromaThreshold, PackedBinaryMask, RgbBoxThreshold,
                           chromaticity, segment_chroma, segment_rgb,
                           threshold_from_pick)

__all__ = [
    "ControllerState", "DesignDiagnostics", "IncrementalCoeffs", "LoopSpec",
    "PiGains", "PlantModel", "damping_from_po", "design_gains", "discretize",
    "pi_step",
    "ObjectMotion", "Scenario", "TrackingMetrics", "TrajectoryRecord",
    "circle_stats", "run_scenario", "settling_time",
    "Frame", "Scene", "Shape", "decode", "encode", "narrow", "render", "widen",
    "CameraIntrinsics", "CameraPose", "error_px", "plant_step",
    "RegionDescriptor", "ScanParams", "locate", "trace_contour",
    "ChromaThreshold", "PackedBinaryMask", "RgbBoxThreshold", "chromaticity",
    "segment_chroma", "segment_rgb", "threshold_from_pick",
]
__version__ = "0.1.0"
