"""Reference code and builders that only the tests use.

The package holds only what its commands and loop run. What is here
restates a piece of it the slow, obvious way (single-pixel mask access,
the continuous closed loop, the pinhole projection), or builds an input
that no command builds.
"""

import math

import numpy as np

from colortrack.control import PiGains, PlantModel
from colortrack.harness import SweepResult
from colortrack.imaging import Frame
from colortrack.plant import CameraIntrinsics, CameraPose
from colortrack.segmentation import WORD_BITS, PackedBinaryMask


def zeros_mask(width: int, height: int) -> PackedBinaryMask:
    """A mask with no pixel set."""
    n = (width * height + WORD_BITS - 1) // WORD_BITS
    return PackedBinaryMask(width, height, np.zeros(n, np.uint32))


def mask_get(mask: PackedBinaryMask, x: int, y: int) -> int:
    if not (0 <= x < mask.width and 0 <= y < mask.height):
        raise IndexError(f"pixel ({x}, {y}) outside {mask.width}x{mask.height}")
    i = y * mask.width + x
    return (int(mask.words[i // WORD_BITS]) >> (i % WORD_BITS)) & 1


def mask_set(mask: PackedBinaryMask, x: int, y: int, bit: int) -> None:
    if not (0 <= x < mask.width and 0 <= y < mask.height):
        raise IndexError(f"pixel ({x}, {y}) outside {mask.width}x{mask.height}")
    i = y * mask.width + x
    w, b = i // WORD_BITS, i % WORD_BITS
    if bit:
        mask.words[w] |= np.uint32(1 << b)
    else:
        mask.words[w] &= np.uint32(~(1 << b) & 0xFFFFFFFF)


def filled_frame(width: int, height: int, word: int = 0) -> Frame:
    """A frame whose every pixel is one RGB565 word."""
    return Frame(width, height, np.full((height, width), word, dtype=np.uint16))


def closed_loop_tf(plant: PlantModel,
                   gains: PiGains) -> tuple[tuple[float, float],
                                            tuple[float, float, float]]:
    """Closed-loop transfer function coefficients, highest power first.

    Returns ((kp*K, ki*K), (tau, 1 + kp*K, ki*K)). The DC gain is
    ki*K / ki*K = 1: the integral action removes the offset error.
    """
    num = (gains.kp * plant.k, gains.ki * plant.k)
    den = (plant.tau, 1.0 + gains.kp * plant.k, gains.ki * plant.k)
    return num, den


def po_from_damping(xi: float) -> float:
    """Percent overshoot of an underdamped second-order step response."""
    if not 0 < xi < 1:
        raise ValueError("damping factor must be in (0, 1)")
    return 100.0 * math.exp(-xi * math.pi / math.sqrt(1 - xi**2))


def project(object_az: float, object_el: float, pose: CameraPose,
            intr: CameraIntrinsics) -> tuple[int, int] | None:
    """Pixel position of an angular direction, or None when out of view."""
    x = round(intr.width / 2 + (object_az - pose.pan) * intr.ppd_x)
    y = round(intr.height / 2 + (object_el - pose.tilt) * intr.ppd_y)
    if not (0 <= x < intr.width and 0 <= y < intr.height):
        return None
    return x, y


def retention(sweep: SweepResult, method: str) -> tuple[float, ...]:
    """Each level's pixel count over the first level's, for one method."""
    counts = sweep.chroma_counts if method == "chroma" else sweep.rgb_counts
    ref = max(counts[0], 1)
    return tuple(c / ref for c in counts)
