"""Correctness gate, run as the traced pass before any timing.

Each mask is compared with an exhaustive verdict table for its threshold:
an RGB565 pixel has only 65,536 values, so the table decides every pixel.
The table is built with scalar arithmetic, independent of the vectorised
segmenters it checks.
"""

from __future__ import annotations

import numpy as np

from colortrack.imaging import widen
from colortrack.segmentation import PackedBinaryMask, RgbBoxThreshold

import layers


def verdict_table(threshold) -> np.ndarray:
    """Per-word segmentation verdict, one scalar test per RGB565 word."""
    table = np.zeros(0x10000, dtype=bool)
    box = isinstance(threshold, RgbBoxThreshold)
    for w in range(0x10000):
        r, g, b = widen(w)
        if box:
            table[w] = (threshold.r_min <= r <= threshold.r_max
                        and threshold.g_min <= g <= threshold.g_max
                        and threshold.b_min <= b <= threshold.b_max)
        else:
            i = r + g + b
            table[w] = (i >= threshold.i_min and i > 0
                        and threshold.r_min <= r / i <= threshold.r_max
                        and threshold.g_min <= g / i <= threshold.g_max)
    return table


class Gate:
    """Tracer observer that checks every mask and every located region."""

    def __init__(self):
        self.tables = {}
        self.problems = []
        self.rejected = set()  # numbers of the frames with a problem
        self.masks = 0
        self.regions = 0

    def observe(self, name, args, kwargs, result):
        if name == "segmentation.segment":
            frame, threshold = args
            if threshold not in self.tables:
                self.tables[threshold] = verdict_table(threshold)
            expected = PackedBinaryMask.from_bool(
                self.tables[threshold][frame.pixels])
            self.masks += 1
            if not np.array_equal(result.words, expected.words):
                self.rejected.add(self.masks)
                self.problems.append(
                    f"mask {self.masks} differs from the verdict table for "
                    f"{threshold}")
        elif name == "region.locate" and result is not None:
            ys, xs = np.nonzero(args[0].to_bool())
            bounds = (int(ys.min()), int(ys.max()),
                      int(xs.min()), int(xs.max()))
            self.regions += 1
            got = (result.top, result.bottom, result.left, result.right)
            if got != bounds:
                self.rejected.add(self.masks)  # the frame's mask came last
                self.problems.append(
                    f"region {self.regions}: bounds (top, bottom, left, right)"
                    f" {got}, set pixels span {bounds}")
        return layers.attrs(name, args, kwargs, result)
