"""Color thresholding into a bit-packed binary mask, by one table lookup.

Two threshold spaces are supported: a raw-RGB box, and rg chromaticity
(normalized RGB), which is approximately invariant to illumination level.
An RGB565 pixel has only 65,536 values, so either threshold is fully
described by a verdict table indexed by the word. Every word's widened
channels, luminance and chromaticity are computed once; each threshold's
table is its own comparisons over them, kept for the next call, and
segmenting a frame is one lookup per pixel (Bruce, Balch & Veloso,
CMVision, IROS 2000).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .imaging import Frame, rewrite, widen_channels

WORD_BITS = 32

# Default margins around a picked color, for threshold_from_pick and Scenario.
RGB_MARGIN = 24
CHROMA_MARGIN = 0.05

THRESHOLD_MODES = ("rgb", "chroma")  # the spaces threshold_from_pick accepts


@dataclass
class PackedBinaryMask:
    """Row-major bit-packed binary image, 1 bit per pixel, 32-bit words.

    Pixel (x, y) lives at linear index i = y*width + x, word i//32,
    bit i%32 (LSB-first). `from_bool` leaves the trailing bits past
    width*height zero; masks built from words may have them set, and no
    reader looks at them.
    """

    width: int
    height: int
    words: np.ndarray  # uint32, length ceil(width*height/32)

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise ValueError(f"mask width {self.width} and height "
                             f"{self.height} must not be negative")
        n = (self.width * self.height + WORD_BITS - 1) // WORD_BITS
        w = np.asarray(self.words, dtype=np.uint32)
        if w.shape != (n,):
            raise ValueError(f"expected {n} words, got shape {w.shape}")
        self.words = w

    @classmethod
    def from_bool(cls, bits: np.ndarray) -> "PackedBinaryMask":
        """Pack a (height, width) boolean array."""
        height, width = bits.shape
        flat = np.packbits(bits.reshape(-1), bitorder="little")
        pad = (-len(flat)) % 4
        if pad:
            flat = np.concatenate([flat, np.zeros(pad, np.uint8)])
        return cls(width, height,
                   flat.view("<u4").astype(np.uint32, copy=False))

    def to_bool(self) -> np.ndarray:
        """Unpack to a new (height, width) boolean array."""
        flat = np.unpackbits(self.words.astype("<u4", copy=False).view(np.uint8),
                             bitorder="little")
        # unpacked bits are 0 or 1, so the bytes are valid bools as they are
        return flat[: self.width * self.height].reshape(
            self.height, self.width).view(bool)

    def band(self) -> tuple[int, np.ndarray]:
        """The rows from the first nonzero word's to the last one's, unpacked.

        Returns (top, bits): the band's first row and a new (rows, width)
        boolean array of rows top..top+rows-1. Every set pixel lies in the
        band, and only the words that cover it are unpacked; the band ends
        at the last row, so bits past width*height are never in it. An
        empty mask, or one of zero area, gives (0, an array of no rows).
        """
        w = self.width
        nonzero = self.words != 0
        # argmax stops at the first True, so no index array is built; it
        # raises on a mask of zero area, which has no words
        head = int(nonzero.argmax()) if nonzero.size else 0
        if not nonzero.size or not nonzero[head]:
            return 0, np.zeros((0, w), dtype=bool)
        tail = len(nonzero) - 1 - int(nonzero[::-1].argmax())
        top = head * WORD_BITS // w
        stop = min((tail + 1) * WORD_BITS - 1, w * self.height - 1) // w + 1
        first = top * w // WORD_BITS
        words = self.words[first:(stop * w + WORD_BITS - 1) // WORD_BITS]
        flat = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8),
                             bitorder="little")
        skip = top * w - first * WORD_BITS
        return top, flat[skip:skip + (stop - top) * w].reshape(
            stop - top, w).view(bool)

    def count(self) -> int:
        return int(self.to_bool().sum())


@dataclass(frozen=True)
class RgbBoxThreshold:
    """Inclusive min/max box per widened 8-bit channel."""

    r_min: int
    r_max: int
    g_min: int
    g_max: int
    b_min: int
    b_max: int

    def __post_init__(self):
        for lo, hi in ((self.r_min, self.r_max), (self.g_min, self.g_max),
                       (self.b_min, self.b_max)):
            if not 0 <= lo <= hi <= 255:
                raise ValueError(f"bad channel range [{lo}, {hi}]")


@dataclass(frozen=True)
class ChromaThreshold:
    """Inclusive box in rg chromaticity plus a minimum-luminance guard.

    Near-black pixels have meaningless chromaticity (the normalization
    divides by I), so pixels with I < i_min never match.
    """

    r_min: float
    r_max: float
    g_min: float
    g_max: float
    i_min: int = 30

    def __post_init__(self):
        for lo, hi in ((self.r_min, self.r_max), (self.g_min, self.g_max)):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"bad chroma range [{lo}, {hi}]")
        if not self.i_min >= 1:  # NaN fails too
            raise ValueError("i_min must be >= 1")


@dataclass(frozen=True)
class ChromaPoint:
    r: float
    g: float


def chromaticity(r, g, b) -> ChromaPoint | None:
    """Normalized (r, g) fractions; None when the pixel is pure black (I = 0).

    Accepts real-valued channels: the normalization is scale-invariant,
    chromaticity(s*R, s*G, s*B) == chromaticity(R, G, B) for any s > 0.
    """
    i = r + g + b
    if i == 0:
        return None
    return ChromaPoint(r / i, g / i)


def threshold_from_pick(color: tuple[int, int, int], mode: str, *,
                        rgb_margin: int = RGB_MARGIN,
                        chroma_margin: float = CHROMA_MARGIN,
                        i_min: int = ChromaThreshold.i_min):
    """Derive a threshold from a single picked pixel with symmetric margins."""
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode: {mode!r}")
    r, g, b = color
    if mode == "rgb":
        return RgbBoxThreshold(
            max(r - rgb_margin, 0), min(r + rgb_margin, 255),
            max(g - rgb_margin, 0), min(g + rgb_margin, 255),
            max(b - rgb_margin, 0), min(b + rgb_margin, 255),
        )
    cp = chromaticity(r, g, b)
    if cp is None:
        raise ValueError("cannot derive a chroma threshold from a black pick")
    return ChromaThreshold(
        max(cp.r - chroma_margin, 0.0), min(cp.r + chroma_margin, 1.0),
        max(cp.g - chroma_margin, 0.0), min(cp.g + chroma_margin, 1.0),
        i_min,
    )


@functools.cache
def _field_grid() -> tuple[np.ndarray, ...]:
    """Every RGB565 word's channels, luminance and chromaticity.

    Returns (r, g, b, i, r_ratio, g_ratio), each indexed by the word
    itself: the widened channels, the uint16 luminance i = r + g + b, and
    the float64 quotients r / i and g / i. Word 0 is the only word with
    i = 0; its quotients are taken over 1 instead, and i >= i_min >= 1
    rejects it anyway. Built once, read-only, 1.3 MB.
    """
    r, g, b = widen_channels(np.arange(0x10000)).T.copy()
    i = r.astype(np.uint16) + g + b
    lum = np.maximum(i, 1)
    grid = r, g, b, i, r / lum, g / lum
    for a in grid:
        a.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=2)
def _verdict_table(t) -> np.ndarray:
    """Segmentation verdict for every RGB565 word, a read-only bool array.

    The threshold's own inclusive comparisons over the field grid.
    Thresholds are frozen, so the tables of the last two are kept: a
    tracking run uses one threshold and a sweep two, while stills picked
    one by one rarely repeat a threshold, so more entries would hold
    tables never read again.
    """
    r, g, b, i, r_ratio, g_ratio = _field_grid()
    if isinstance(t, RgbBoxThreshold):
        table = ((r >= t.r_min) & (r <= t.r_max) & (g >= t.g_min)
                 & (g <= t.g_max) & (b >= t.b_min) & (b <= t.b_max))
    else:
        table = ((i >= t.i_min) & (r_ratio >= t.r_min) & (r_ratio <= t.r_max)
                 & (g_ratio >= t.g_min) & (g_ratio <= t.g_max))
    table.setflags(write=False)
    return table


def segment_rgb(frame: Frame, t) -> PackedBinaryMask:
    """Bit set iff the pixel passes t, an RGB box or a chroma threshold.

    One lookup per pixel into the threshold's verdict table.
    """
    return PackedBinaryMask.from_bool(np.take(_verdict_table(t), frame.pixels))


# One body, two names: the benchmark's tracer patches each name on its own.
segment_chroma = segment_rgb


def write_pbm(mask: PackedBinaryMask, path) -> None:
    """Export as binary PBM (P4). PBM is MSB-first, so bits are reordered.

    An existing file is rewritten in place (`imaging.rewrite`).
    """
    rows = np.packbits(mask.to_bool(), axis=1)  # MSB-first, rows byte-padded
    rewrite(path, b"P4\n%d %d\n" % (mask.width, mask.height)
            + rows.tobytes())


def write_mask_words(mask: PackedBinaryMask, path) -> None:
    """Dump the raw packed words, little-endian, for exact round-trips.

    An existing file is rewritten in place (`imaging.rewrite`). Read a dump
    back with `PackedBinaryMask(w, h, np.fromfile(path, "<u4"))`.
    """
    rewrite(path, mask.words.astype("<u4").tobytes())
