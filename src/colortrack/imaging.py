"""RGB565 pixel codec, frame container, file I/O, and a synthetic scene renderer."""

from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np


def decode(word: int) -> tuple[int, int, int]:
    """Split a 16-bit RGB565 word into its (r5, g6, b5) fields."""
    if not 0 <= word <= 0xFFFF:
        raise ValueError(f"RGB565 word out of range: {word}")
    return (word >> 11) & 0x1F, (word >> 5) & 0x3F, word & 0x1F


def encode(r5: int, g6: int, b5: int) -> int:
    """Pack (r5, g6, b5) fields into a 16-bit RGB565 word."""
    if not (0 <= r5 <= 31 and 0 <= g6 <= 63 and 0 <= b5 <= 31):
        raise ValueError(f"RGB565 field out of range: ({r5}, {g6}, {b5})")
    return (r5 << 11) | (g6 << 5) | b5


def widen(word: int) -> tuple[int, int, int]:
    """Expand an RGB565 word to 8-bit channels by bit replication.

    Replication (v5<<3)|(v5>>2) maps full scale to 255 exactly, unlike a
    plain shift.
    """
    r5, g6, b5 = decode(word)
    return (r5 << 3) | (r5 >> 2), (g6 << 2) | (g6 >> 4), (b5 << 3) | (b5 >> 2)


def narrow(r: int, g: int, b: int) -> int:
    """Quantize an 8-bit RGB triple to RGB565 by truncation."""
    if not all(0 <= c <= 255 for c in (r, g, b)):
        raise ValueError(f"8-bit channel out of range: ({r}, {g}, {b})")
    return encode(r >> 3, g >> 2, b >> 3)


def widen_channels(words: np.ndarray) -> np.ndarray:
    """Vectorized widen: uint16 array -> uint8 array with a trailing axis of 3."""
    words = np.asarray(words, dtype=np.uint16)
    r5 = (words >> 11) & 0x1F
    g6 = (words >> 5) & 0x3F
    b5 = words & 0x1F
    out = np.empty(words.shape + (3,), dtype=np.uint8)
    out[..., 0] = (r5 << 3) | (r5 >> 2)
    out[..., 1] = (g6 << 2) | (g6 >> 4)
    out[..., 2] = (b5 << 3) | (b5 >> 2)
    return out


def narrow_channels(rgb: np.ndarray) -> np.ndarray:
    """Vectorized narrow: uint8 array with trailing axis of 3 -> uint16 words.

    Each pixel's bytes are read in pairs, through two little-endian uint16
    views of the C-contiguous bytes whose stride is the pixel's: at byte
    offset 0 an element is r | g << 8, at offset 1 it is g | b << 8. The
    (r, g) view is copied once and the word is built in place from it and
    the (g, b) view, so a frame costs two strided reads and two full-size
    temporaries. Naming the byte order "<u2" makes the pairing the same on
    any host.
    """
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    shape, strides = rgb.shape[:-1], rgb.strides[:-1]
    if rgb.size == 0:  # a view needs at least one element's bytes
        return np.zeros(shape, np.uint16)
    rg = np.ndarray(shape, "<u2", rgb, 0, strides).astype(np.uint16)
    word = rg << 8
    word &= 0xF800  # r >> 3 in bits 11-15
    rg >>= 5
    rg &= 0x07E0  # g >> 2 in bits 5-10
    word |= rg
    np.right_shift(np.ndarray(shape, "<u2", rgb, 1, strides), 11, out=rg)
    word |= rg  # b >> 3 in bits 0-4
    return word


@dataclass(frozen=True)
class Frame:
    """Row-major RGB565 pixel grid; the unit of all vision processing."""

    width: int
    height: int
    pixels: np.ndarray  # uint16, shape (height, width)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint16)
        if px.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array shape {px.shape} does not match "
                f"{self.width}x{self.height}"
            )
        object.__setattr__(self, "pixels", px)
        self.pixels.setflags(write=False)


SHAPE_KINDS = ("disk", "triangle", "rectangle")


@dataclass(frozen=True)
class Shape:
    """One colored shape in a synthetic scene, placed in angular coordinates."""

    kind: str  # one of SHAPE_KINDS
    az: float  # degrees
    el: float  # degrees
    size: float  # angular diameter, degrees
    color: tuple[int, int, int]  # 8-bit RGB

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind: {self.kind!r}")
        if not all(map(math.isfinite, (self.az, self.el, self.size))):
            raise ValueError("shape az, el and size must be finite")
        if self.size <= 0:
            raise ValueError("shape angular size must be > 0")


@dataclass(frozen=True)
class Scene:
    """Synthetic stand-in for the physical test objects in front of the camera."""

    background: tuple[int, int, int] = (16, 16, 16)
    shapes: tuple[Shape, ...] = ()
    illumination: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.illumination <= 1.0:
            raise ValueError("illumination must be in [0, 1]")
        object.__setattr__(self, "shapes", tuple(self.shapes))


def _lit(color: tuple[int, int, int], illumination: float) -> tuple[int, int, int]:
    # Truncation keeps rendering monotone in the illumination scalar.
    return tuple(int(illumination * c) for c in color)


def _extent(c: float, r: float, n: int) -> tuple[int, int]:
    """Pixel index range [lo, hi) on an axis of n that c ± r can cover.

    The margin of 1 px, plus a relative part for far-off centres where
    `pixel - c` rounds, covers every pixel the coverage tests can accept.
    The bounds are clamped in float before the int conversion. A bound
    that overflows (an infinite centre or radius) clamps to the frame's
    edge or, as NaN, falls back to the whole axis; there the coverage
    tests decide as they would over the full frame.
    """
    margin = 1.0 + 1e-9 * (abs(c) + r)
    lo, hi = c - r - margin, c + r + margin
    lo = math.floor(min(lo, n)) if lo > 0 else 0
    hi = math.floor(max(hi, -1.0)) + 1 if hi < n else n
    return lo, hi


def render(scene: Scene, pose, intrinsics) -> Frame:
    """Rasterize a scene as seen from a camera pose.

    Later shapes overdraw earlier ones; every color is scaled by the scene
    illumination (floor) and quantized to RGB565 by truncation. Each shape
    is tested only over its clipped pixel bounding box, with the same
    per-pixel expressions as over the full frame.
    """
    w, h = intrinsics.width, intrinsics.height
    bg = narrow(*_lit(scene.background, scene.illumination))
    pixels = np.full((h, w), bg, dtype=np.uint16)
    for shape in scene.shapes:
        cx = w / 2 + (shape.az - pose.pan) * intrinsics.ppd_x
        cy = h / 2 + (shape.el - pose.tilt) * intrinsics.ppd_y
        rx = shape.size / 2 * intrinsics.ppd_x
        ry = shape.size / 2 * intrinsics.ppd_y
        x0, x1 = _extent(cx, rx, w)
        y0, y1 = _extent(cy, ry, h)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.arange(y0, y1)[:, None], np.arange(x0, x1)
        if shape.kind == "disk":
            covered = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        elif shape.kind == "rectangle":
            covered = (np.abs(xs - cx) <= rx) & (np.abs(ys - cy) <= ry)
        else:  # triangle: apex up, base down, inscribed in the bounding box
            u = (ys - (cy - ry)) / (2 * ry)  # 0 at apex, 1 at base
            covered = (u >= 0) & (u <= 1) & (np.abs(xs - cx) <= rx * u)
        color = narrow(*_lit(shape.color, scene.illumination))
        pixels[y0:y1, x0:x1][covered] = color
    return Frame(w, h, pixels)


def rewrite(path, data: bytes) -> None:
    """Make `data` the whole content of `path`, written over its old bytes.

    Opening with mode "wb" truncates first, and on some filesystems
    freeing the old blocks costs more than the write (ext4 mounted with
    discard: about 200 us, ten or more times the write of a VGA mask). So
    the file is opened without O_TRUNC and its tail is cut only when it is
    still longer than `data`; a device or a pipe, which cannot be cut, never
    reads as longer. If the rewrite fails, a regular file is cut to zero
    bytes before the error propagates, so new bytes are never left in
    front of old ones.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    except OSError:
        with contextlib.suppress(OSError):  # only a regular file can be cut
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def write_ppm(frame: Frame, path) -> None:
    """Write a frame as binary PPM (P6, maxval 255), widening each pixel."""
    rewrite(path, b"P6\n%d %d\n255\n" % (frame.width, frame.height)
            + widen_channels(frame.pixels).tobytes())


# The Netpbm P6 header: magic, width, height and maxval in ASCII decimal,
# separated by whitespace or '#' comments that run to the end of a line,
# then one whitespace byte before the raster.
_PPM_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_SEP + rb"(\d+)") * 3 + rb"\s")


def read_ppm(path) -> Frame:
    """Read a binary PPM (P6, maxval 255) and narrow it to an RGB565 frame.

    The file is read once, and the payload size the header claims is checked
    against the bytes read before any pixel array is made.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise ValueError("malformed PPM header: not a P6 file")
    m = _PPM_HEADER.match(data)
    if m is None:
        raise ValueError("malformed PPM header: expected width, height and "
                         "maxval")
    try:
        width, height, maxval = map(int, m.groups())
    except ValueError as e:  # more digits than int() converts
        raise ValueError(f"malformed PPM header: {e}") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval} (need 255)")
    count = width * height * 3
    if len(data) - m.end() < count:
        raise ValueError("truncated PPM payload")
    rgb = np.frombuffer(data, np.uint8, count, m.end())
    return Frame(width, height, narrow_channels(rgb.reshape(height, width, 3)))


def write_rgb565(frame: Frame, path) -> None:
    """Dump raw little-endian RGB565 words, row-major, no header."""
    rewrite(path, frame.pixels.astype("<u2").tobytes())


def read_rgb565(path, width: int, height: int) -> Frame:
    """Read a raw RGB565 dump; dimensions are supplied out-of-band."""
    if width <= 0 or height <= 0:
        raise ValueError(f"bad raw dimensions {width}x{height}")
    with open(path, "rb") as f:
        data = f.read()
    if len(data) != width * height * 2:
        raise ValueError(
            f"raw payload is {len(data)} bytes, expected {width * height * 2}"
        )
    pixels = np.frombuffer(data, dtype="<u2").reshape(height, width)
    return Frame(width, height, pixels.astype(np.uint16))
