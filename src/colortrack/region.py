"""Region description: initial-run scan plus counter-clockwise contour walk.

`locate` encodes the mask once, as horizontal runs (row, x0, x1) of set
pixels in CMVision's run-based style (Bruce, Balch & Veloso, IROS 2000),
and hands the encoding to both the scan and the walk. Only the band of
rows between the first and the last nonzero packed word is unpacked and
encoded, so the cost follows the rows the object covers, not the frame.
The initial scan takes the first run wide enough. The walk collects the
8-connected runs of its start pixel's component once (run-based
labelling, He, Chao & Suzuki, IEEE TIP 17(5), 2008), marking visited runs
in a flag array: their extremes are the component's limits, and the
right end of the first of them in raster order, the leftmost run on its
top row, is the walk's start, whose east neighbour is outer background.
The Moore-neighborhood walk runs over a zero-bordered byte copy of the
component's bounding box only and counts the contour length as it goes;
the optional pixel count and centroid are summed over the same runs, so
their cost grows with the number of runs rather than pixels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .segmentation import PackedBinaryMask

# Moore neighborhood in counter-clockwise visual order (y grows downward):
# E, NE, N, NW, W, SW, S, SE
_DX = (1, 1, 0, -1, -1, -1, 0, 1)
_DY = (0, -1, -1, -1, 0, 1, 1, 1)
# After a move in direction m, the cell examined just before it (direction
# m-1 from the old pixel) is unset; seen from the new pixel it lies in
# direction _BACK[m], where the next sweep starts.
_BACK = tuple((2 * (m // 2) + 6) % 8 for m in range(8))
# For each backtrack direction b, the CCW sweep of the 3x3 neighborhood
# from just past b, as directions.
_SWEEP = tuple(tuple(d % 8 for d in range(b + 1, b + 9)) for b in range(8))


@dataclass(frozen=True, slots=True)
class RegionDescriptor:
    """Limits and center of one detected group of contiguous pixels."""

    top: int
    bottom: int
    left: int
    right: int
    center_x: int
    center_y: int
    contour_length: int
    pixel_count: Optional[int] = None
    centroid_x: Optional[float] = None
    centroid_y: Optional[float] = None

    def report_line(self) -> str:
        return ("region: x %d..%d, y %d..%d, center (%d, %d), contour %d px"
                % (self.left, self.right, self.top, self.bottom,
                   self.center_x, self.center_y, self.contour_length))


@dataclass(frozen=True)
class ScanParams:
    """min_width filters out narrow noise runs during the initial scan."""

    min_width: int = 3

    def __post_init__(self):
        if self.min_width < 1:
            raise ValueError("min_width must be >= 1")


def find_initial_run(mask: PackedBinaryMask, params: ScanParams, *,
                     encoding=None) -> Optional[tuple[int, int, int]]:
    """First horizontal run of set pixels with length >= min_width.

    Scans from the top-left corner, rightward then downward, through the run
    encoding of the mask's band of set rows: `encoding`, the mask's
    `_encode`, when given. Returns (row, left_x, right_x) or None.
    """
    ys, x0, x1 = (_encode(mask) if encoding is None else encoding)[2]
    hit = np.flatnonzero(x1 - x0 + 1 >= params.min_width)
    if not hit.size:
        return None
    j = hit[0]
    return int(ys[j]), int(x0[j]), int(x1[j])


def _encode(mask: PackedBinaryMask):
    """The band of rows that holds every set pixel, and its runs.

    Returns (top, bits, runs): the band's first row, its unpacked
    (rows, width) bits, and `_runs(bits)` with the rows of the mask. Only
    the rows between the first and the last nonzero word are unpacked; an
    empty mask has an empty band.
    """
    top, bits = mask.band()
    ys, x0, x1 = _runs(bits)
    return top, bits, (ys + top, x0, x1)


def _runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal runs of set pixels as (row, x0, x1) arrays, x1 inclusive.

    Runs are sorted by row, then by x0. Each row is padded with an unset
    pixel at both ends, so the changes along the flattened rows alternate:
    run start, then one past the run's end, and no run spans two rows.
    """
    h, w = bits.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = bits
    ys, xs = np.divmod(np.flatnonzero(np.diff(padded.ravel())), w + 2)
    return ys[0::2], xs[0::2], xs[1::2] - 1


def trace_contour(mask: PackedBinaryMask, start: tuple[int, int], *,
                  fill_count: bool = False, encoding=None) -> RegionDescriptor:
    """Counter-clockwise Moore-neighborhood walk round the component of a
    set pixel.

    The start may be any set pixel. One pass over the run encoding
    (`encoding`, the mask's `_encode`, when given) collects the runs of its
    8-connected component; their extremes are the limits, since the outer
    boundary touches every side of the component's bounding box. The walk
    starts at the right end of the first of them in raster order: the
    leftmost run on the component's top row. The east neighbour of that
    pixel is outer background, so the walk traces the outer boundary and
    never a hole, and the result depends only on the component. The walk
    stops when the start pixel is re-entered from the same direction as the
    first departure (Jacob's stopping criterion); this survives
    one-pixel-wide spurs, where stopping on any return to the start can cut
    the walk short. It runs over a copy of the bounding box with a border
    of unset pixels, so a pixel is its flat index in that copy and no
    neighbour needs a bounds check. No path is kept: the contour length is
    the number of pixel visits, with the start counted once.

    With fill_count, pixel_count and the centroid are summed over the same
    component's runs.
    """
    y0, bits, runs = _encode(mask) if encoding is None else encoding
    w, h = mask.width, mask.height
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy - y0 < len(bits) and bits[sy - y0, sx]):
        raise ValueError(f"contour start ({sx}, {sy}) is not a set pixel")
    flags, head, (top, bottom, left, right) = _component_runs(runs, sx, sy)

    stride = right - left + 3
    grid = np.zeros((bottom - top + 3, stride), dtype=np.uint8)
    grid[1:-1, 1:-1] = bits[top - y0:bottom - y0 + 1, left:right + 1]
    cells = grid.tobytes()
    ring = [dx + dy * stride for dx, dy in zip(_DX, _DY)]  # neighbour offsets
    first = cur = stride + int(runs[2][head]) - left + 1
    # The start's eastern neighbour is outer background; the walk
    # backtracks from there.
    sweep = _SWEEP[0]
    first_move = None
    steps = returns = 0
    for _ in range(4 * w * h + 1):  # the step cap: 4 steps per pixel
        # The first set pixel of the CCW sweep is the next contour pixel.
        for move in sweep:
            if cells[cur + ring[move]]:
                break
        else:
            break  # isolated pixel, one-pixel region
        if cur == first:
            if first_move is None:
                first_move = move
            elif move == first_move:
                break  # the walk state has cycled back to its initial state
        cur += ring[move]
        steps += 1
        returns += cur == first
        sweep = _SWEEP[_BACK[move]]
    else:
        raise RuntimeError("contour walk exceeded the step cap")

    pixel_count = None
    centroid = (None, None)
    if fill_count:
        # Exact integer sums, divided once; (x0 + x1) * size is always even.
        comp = np.flatnonzero(np.frombuffer(flags, dtype=bool))
        rows, x0s, x1s = (a[comp] for a in runs)
        size = x1s - x0s + 1
        pixel_count = int(size.sum())
        centroid = (int(((x0s + x1s) * size).sum()) // 2 / pixel_count,
                    int((rows * size).sum()) / pixel_count)
    return RegionDescriptor(
        top=top, bottom=bottom, left=left, right=right,
        center_x=int((left + right) / 2), center_y=int((top + bottom) / 2),
        contour_length=steps + 1 - returns,
        pixel_count=pixel_count, centroid_x=centroid[0],
        centroid_y=centroid[1])


def _component_runs(runs, sx: int, sy: int):
    """The 8-connected component holding set pixel (sx, sy), from `runs`,
    the runs of the mask's band of set rows.

    Returns (flags, head, (top, bottom, left, right)): a bytearray with a 1
    at the index of each of the component's runs into `runs`, the index of
    its first run in raster order (the leftmost run on its top row), and
    its limits. Runs are sorted by row, then by x0, so the head is the
    smallest index and the bottom row is the largest index's; both, and
    the left and right limits, are kept as the runs are visited. Runs in
    adjacent rows touch when x0_a <= x1_b + 1 and x0_b <= x1_a + 1.
    """
    rows, x0s, x1s = (a.tolist() for a in runs)
    first = rows[0]
    # starts[r] is the index of the first run of row first + r, for the
    # rows from the first run's to one past the last run's
    starts = np.searchsorted(runs[0], np.arange(first, rows[-1] + 2)).tolist()
    n_rows = len(starts) - 1
    # the start's run: the first of its row whose x1 >= sx
    i = bisect_left(x1s, sx, starts[sy - first], starts[sy - first + 1])
    flags = bytearray(len(rows))
    flags[i] = 1
    stack = [i]
    head = tail = i
    left, right = x0s[i], x1s[i]
    while stack:
        i = stack.pop()
        r, a, b = rows[i] - first, x0s[i], x1s[i]
        if i < head:
            head = i
        elif i > tail:
            tail = i
        if a < left:
            left = a
        if b > right:
            right = b
        for nr in (r - 1, r + 1):
            if not 0 <= nr < n_rows:
                continue
            # from the first run of row nr whose x1 >= a - 1, while x0 <= b + 1
            end = starts[nr + 1]
            j = bisect_left(x1s, a - 1, starts[nr], end)
            while j < end and x0s[j] <= b + 1:
                if not flags[j]:
                    flags[j] = 1
                    stack.append(j)
                j += 1
    return flags, head, (rows[head], rows[tail], left, right)


def locate(mask: PackedBinaryMask, params: ScanParams = ScanParams(), *,
           fill_count: bool = False) -> Optional[RegionDescriptor]:
    """Scan for the first qualifying run and trace its component's contour.

    The mask is encoded once, for both. Both are called through this
    module's names, where the benchmark's tracer patches them.
    """
    encoding = _encode(mask)
    run = find_initial_run(mask, params, encoding=encoding)
    if run is None:
        return None
    row, _, right_x = run
    return trace_contour(mask, (right_x, row), fill_count=fill_count,
                         encoding=encoding)
