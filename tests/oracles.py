"""Reference code and builders that only the tests use.

The package holds only what its commands and loop run. What is here
restates a piece of it the slow, obvious way (single-pixel mask access,
the scalar segmentation rule, the flood fill, the Moore contour walk, the
continuous closed loop, the pinhole projection), or builds an input that no command builds. Each
oracle has one copy, which every test imports.
"""

import math

import numpy as np

from colortrack.control import PiGains, PlantModel
from colortrack.harness import ObjectMotion, SweepResult, TrajectoryRecord
from colortrack.imaging import Frame
from colortrack.plant import CameraIntrinsics, CameraPose
from colortrack.region import RegionDescriptor
from colortrack.segmentation import (WORD_BITS, PackedBinaryMask,
                                     RgbBoxThreshold)

# Criterion 7's start: the object fixed near the frame's corner.
CORNER_START = ObjectMotion(az=20.0, el=15.0)


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


def naive_verdict(r, g, b, threshold):
    """Scalar segmentation rule for one pixel's widened channels."""
    if isinstance(threshold, RgbBoxThreshold):
        return (threshold.r_min <= r <= threshold.r_max
                and threshold.g_min <= g <= threshold.g_max
                and threshold.b_min <= b <= threshold.b_max)
    i = r + g + b
    return (i >= threshold.i_min and i > 0
            and threshold.r_min <= r / i <= threshold.r_max
            and threshold.g_min <= g / i <= threshold.g_max)


def flood_pixels(bits, seed):
    """8-connected flood fill from seed, the independent oracle: the (x, y)
    pixels of seed's component."""
    h, w = bits.shape
    seen = np.zeros_like(bits)
    stack = [seed]
    seen[seed[1], seed[0]] = True
    pixels = []
    while stack:
        x, y = stack.pop()
        pixels.append((x, y))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                if (0 <= nx < w and 0 <= ny < h and bits[ny, nx]
                        and not seen[ny, nx]):
                    seen[ny, nx] = True
                    stack.append((nx, ny))
    return pixels


def flood_oracle(bits, seed):
    """The bounding box (top, bottom, left, right), the pixel count and the
    mean-position centroid (x, y) of seed's component, by flood fill."""
    xs, ys = zip(*flood_pixels(bits, seed))
    n = len(xs)
    return ((min(ys), max(ys), min(xs), max(xs)), n,
            (sum(xs) / n, sum(ys) / n))


def anchor_oracle(bits, seed):
    """Right end of the leftmost run on the top row of seed's component,
    where the walk starts whichever pixel `trace_contour` is given."""
    top, left = min((y, x) for x, y in flood_pixels(bits, seed))
    return run_end(bits, left, top), top


def run_end(bits, x, y):
    """Right end of the horizontal run holding set pixel (x, y)."""
    while x + 1 < bits.shape[1] and bits[y, x + 1]:
        x += 1
    return x


_DX = (1, 1, 0, -1, -1, -1, 0, 1)  # E, NE, N, NW, W, SW, S, SE
_DY = (0, -1, -1, -1, 0, 1, 1, 1)


def reference_walk(bits, start):
    """Counter-clockwise Moore walk on the numpy array, the oracle of
    `trace_contour`'s count.

    Every neighbour test is bounds-checked and the limits are updated on
    every step. Stops by Jacob's criterion: the start is left again in the
    direction of the first departure.
    """
    h, w = bits.shape

    def is_set(x, y):
        return 0 <= x < w and 0 <= y < h and bits[y, x]

    sx, sy = start
    assert is_set(sx, sy)
    left = right = cx = sx
    top = bottom = cy = sy
    length = 1
    back = 0
    first_move = None
    while True:
        move = next((d % 8 for d in range(back + 1, back + 9)
                     if is_set(cx + _DX[d % 8], cy + _DY[d % 8])), None)
        if move is None:
            break
        if (cx, cy) == (sx, sy):
            if first_move is None:
                first_move = move
            elif move == first_move:
                break
        cx += _DX[move]
        cy += _DY[move]
        back = (2 * (move // 2) + 6) % 8
        left, right = min(left, cx), max(right, cx)
        top, bottom = min(top, cy), max(bottom, cy)
        if (cx, cy) != (sx, sy):
            length += 1
    return RegionDescriptor(
        top=top, bottom=bottom, left=left, right=right,
        center_x=int((left + right) / 2), center_y=int((top + bottom) / 2),
        contour_length=length)


def with_trailing_bits(mask):
    """The same mask built from its words with every bit past width*height
    set, as PackedBinaryMask(w, h, words) accepts."""
    words = mask.words.copy()
    used = mask.width * mask.height % 32
    if used:
        words[-1] |= np.uint32((0xFFFFFFFF << used) & 0xFFFFFFFF)
    return PackedBinaryMask(mask.width, mask.height, words)


def record_of(rows) -> TrajectoryRecord:
    """A record holding `rows`, appended in turn as the loop appends them."""
    rec = TrajectoryRecord()
    for row in rows:
        rec.append(row)
    return rec


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
