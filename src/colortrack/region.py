"""Region description: initial-run scan plus counter-clockwise contour walk.

The scan and the walk each read the mask through a run encoding: horizontal
runs (row, x0, x1) of set pixels, as in CMVision's run-based region
extraction (Bruce, Balch & Veloso, IROS 2000). The initial scan takes the
first run wide enough. The walk collects the 8-connected runs of its start
pixel's component once (run-based labelling, He, Chao & Suzuki, IEEE TIP
17(5), 2008) and starts at the right end of the component's first run in
raster order, the leftmost run on its top row, whose east neighbour is
outer background. The limits and the contour length come from the
Moore-neighborhood walk over a zero-bordered byte copy of the mask; the
optional pixel count and centroid are summed over the same runs, so their
cost grows with the number of runs rather than pixels.
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


@dataclass(frozen=True)
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

    def csv_row(self) -> str:
        return "%d,%d,%d,%d,%d,%d,%d" % (
            self.top, self.bottom, self.left, self.right,
            self.center_x, self.center_y, self.contour_length)

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


def find_initial_run(mask: PackedBinaryMask,
                     params: ScanParams) -> Optional[tuple[int, int, int]]:
    """First horizontal run of set pixels with length >= min_width.

    Scans from the top-left corner, rightward then downward, through the run
    encoding of the whole mask. Returns (row, left_x, right_x) or None.
    """
    ys, x0, x1 = _runs(mask.to_bool())
    hit = np.flatnonzero(x1 - x0 + 1 >= params.min_width)
    if not hit.size:
        return None
    j = hit[0]
    return int(ys[j]), int(x0[j]), int(x1[j])


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
                  fill_count: bool = False) -> RegionDescriptor:
    """Counter-clockwise Moore-neighborhood walk round the component of a
    set pixel.

    The start may be any set pixel. One pass over the run encoding collects
    the runs of its 8-connected component, and the walk starts at the right
    end of the first of them in raster order: the leftmost run on the
    component's top row. The east neighbour of that pixel is outer
    background, so the walk traces the outer boundary and never a hole, and
    the result depends only on the component. The walk stops when the start
    pixel is re-entered from the same direction as the first departure
    (Jacob's stopping criterion); this survives one-pixel-wide spurs, where
    stopping on any return to the start can cut the walk short. It runs
    over a copy of the mask with a border of unset pixels, so a pixel is its
    flat index in that copy and no neighbour needs a bounds check.

    With fill_count, pixel_count and the centroid are summed over the same
    component's runs.
    """
    bits = mask.to_bool()
    h, w = bits.shape
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy < h and bits[sy, sx]):
        raise ValueError(f"contour start ({sx}, {sy}) is not a set pixel")
    runs = _runs(bits)
    comp = np.fromiter(_component_runs(runs, sx, sy), dtype=np.intp)
    rows, x0s, x1s = (a[comp] for a in runs)
    top_left = comp.argmin()  # runs are sorted by row, then by x0
    sx, sy = int(x1s[top_left]), int(rows[top_left])

    stride = w + 2
    grid = np.zeros((h + 2, stride), dtype=np.uint8)
    grid[1:-1, 1:-1] = bits
    cells = grid.tobytes()
    # Offsets of the eight neighbours, listed twice so the sweep below can
    # run past direction 7 without a modulo.
    ring = [dx + dy * stride for dx, dy in zip(_DX, _DY)] * 2
    first = cur = (sy + 1) * stride + sx + 1
    path = [cur]
    # The start's eastern neighbour is outer background; the walk
    # backtracks from there.
    back = 0  # direction index from current pixel toward the backtrack cell
    first_move = None
    cap = 4 * w * h
    while True:
        # CCW sweep of the 3x3 neighborhood, starting just past the backtrack
        # cell; the first set pixel found is the next contour pixel.
        for d in range(back + 1, back + 9):
            if cells[cur + ring[d]]:
                break
        else:
            break  # isolated pixel, one-pixel region
        move = d % 8
        if cur == first:
            if first_move is None:
                first_move = move
            elif move == first_move:
                break  # the walk state has cycled back to its initial state
        cur += ring[move]
        path.append(cur)
        # The cell examined just before the move (direction move-1 from the
        # old pixel) is unset; seen from the new pixel it lies at:
        back = (2 * (move // 2) + 6) % 8
        if len(path) > cap + 1:
            raise RuntimeError("contour walk exceeded the step cap")

    ys, xs = np.divmod(np.array(path), stride)
    top, bottom = int(ys.min()) - 1, int(ys.max()) - 1
    left, right = int(xs.min()) - 1, int(xs.max()) - 1
    pixel_count = None
    centroid = (None, None)
    if fill_count:
        # Exact integer sums, divided once; (x0 + x1) * size is always even.
        size = x1s - x0s + 1
        pixel_count = int(size.sum())
        centroid = (int(((x0s + x1s) * size).sum()) // 2 / pixel_count,
                    int((rows * size).sum()) / pixel_count)
    return RegionDescriptor(
        top=top, bottom=bottom, left=left, right=right,
        center_x=int((left + right) / 2), center_y=int((top + bottom) / 2),
        contour_length=len(path) - path.count(first) + 1,
        pixel_count=pixel_count, centroid_x=centroid[0],
        centroid_y=centroid[1])


def _component_runs(runs, sx: int, sy: int) -> set[int]:
    """Indices into `runs`, the runs of the whole mask, of the 8-connected
    component holding set pixel (sx, sy).

    Runs in adjacent rows touch when x0_a <= x1_b + 1 and x0_b <= x1_a + 1.
    """
    rows, x0s, x1s = (a.tolist() for a in runs)
    last = rows[-1]
    starts = np.searchsorted(runs[0], np.arange(last + 2)).tolist()

    def first_touching(y, x):
        # first run of row y whose x1 >= x, by bisection over that row
        return bisect_left(x1s, x, starts[y], starts[y + 1])

    stack = [first_touching(sy, sx)]
    seen = set(stack)
    while stack:
        i = stack.pop()
        y, a, b = rows[i], x0s[i], x1s[i]
        for ny in (y - 1, y + 1):
            if not 0 <= ny <= last:
                continue
            j = first_touching(ny, a - 1)
            end = starts[ny + 1]
            while j < end and x0s[j] <= b + 1:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
                j += 1
    return seen


def locate(mask: PackedBinaryMask, params: ScanParams = ScanParams(), *,
           fill_count: bool = False) -> Optional[RegionDescriptor]:
    """Scan for the first qualifying run and trace its component's contour."""
    run = find_initial_run(mask, params)
    if run is None:
        return None
    row, _, right_x = run
    return trace_contour(mask, (right_x, row), fill_count=fill_count)
