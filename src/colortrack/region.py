"""Region description: initial-run scan plus a contour count over runs.

`locate` encodes the mask once, as horizontal runs (row, x0, x1) of set
pixels in CMVision's run-based style (Bruce, Balch & Veloso, IROS 2000),
for both the scan and the component pass. Only the band of rows between
the first and the last nonzero packed word is unpacked and encoded, so
the cost follows the rows the object covers, not the frame. The scan
takes the first run wide enough. The component pass collects the
8-connected runs of that run's component once (run-based labelling, He,
Chao & Suzuki, IEEE TIP 17(5), 2008): their extremes are the limits. The
same pass counts the contour length of the paper's Moore walk with
Jacob's stopping rule, as Yokoi's connectivity number summed over the
runs (Yokoi, Toriwaki & Fukumura, CGIP 4(1), 1975); a component with
holes takes one more pass, over the gaps between its runs. No pixel is
visited one at a time, and the walk lives on only as the tests' oracle.
The optional pixel count and centroid are summed over the same runs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .segmentation import PackedBinaryMask


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
    """Limits and contour length of the component of a set pixel.

    The start may be any set pixel. One pass over the run encoding
    (`encoding`, the mask's `_encode`, when given) collects the runs of its
    8-connected component; their extremes are the limits, since the outer
    boundary touches every side of the component's bounding box.

    The contour length is the number of pixel visits, with the start
    counted once, of a counter-clockwise Moore-neighborhood walk round the
    outer boundary. The walk starts at the right end of the component's
    first run in raster order, the leftmost run on its top row, whose east
    neighbour is outer background, and it stops when it leaves the start
    in the direction of its first departure again (Jacob's stopping
    criterion), so the result depends only on the component. It is
    counted, not walked: the walk enters a pixel once per arc of outer
    background round it, which is Yokoi's connectivity number N8 of the
    pixel once the holes are filled, and so the length is
    sum(N8) - N8(start) + 1. Over the runs, sum(N8) is 2 * (x1 - x0)
    summed over the runs plus, for each run (a, b) touching a run (c, d)
    in the row below, [a == c] + [b == d] - 2 * (min(b, d) - max(a, c)).
    The component pass sums both. The start's N8 comes from its run and
    the three pixels below it.

    A component has pairs - runs + 1 holes, the cycles of its run graph.
    Only then does `_holes` class the gaps between its runs as outer
    background or hole, and filling the holes drops what it finds from
    sum(N8); the start's south neighbour counts as set when it lies in a
    hole.

    With fill_count, pixel_count and the centroid are summed over the same
    component's runs, holes not filled.
    """
    y0, bits, runs = _encode(mask) if encoding is None else encoding
    w = mask.width
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy - y0 < len(bits) and bits[sy - y0, sx]):
        raise ValueError(f"contour start ({sx}, {sy}) is not a set pixel")
    flags, head, limits, visits, pairs = _component_runs(runs, [(sx, sy)], 1)
    top, bottom, left, right = limits
    a, b = int(runs[1][head]), int(runs[2][head])
    # Every set pixel next to the start is the component's, and only the
    # row below holds any besides its run.
    sw = s = se = False
    if top < bottom:
        below = bits[top + 1 - y0]
        sw, s = b > 0 and bool(below[b - 1]), bool(below[b])
        se = b + 1 < w and bool(below[b + 1])
    holes = pairs - flags.count(1) + 1
    if holes:
        dropped, s_in_hole = _holes(runs, flags, top, bottom, (b, top + 1))
        visits -= dropped
        s = s or s_in_hole
    # N, NE, NW and E of the start are unset, so its N8 is [W, SW or S
    # set] + [SE set and S unset]; W is set unless its run is one pixel.
    n8_start = (a < b or sw or s) + (se and not s)

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
        contour_length=visits - n8_start + 1,
        pixel_count=pixel_count, centroid_x=centroid[0],
        centroid_y=centroid[1])


def _component_runs(runs, seeds, reach: int):
    """The runs connected to the runs holding the `seeds` pixels.

    Runs in adjacent rows touch when x0_a <= x1_b + reach and
    x0_b <= x1_a + reach: reach 1 joins set pixels 8-connected, reach 0
    joins background 4-connected.

    Returns (flags, head, (top, bottom, left, right), visits, pairs): a
    bytearray with a 1 at the index of each run found into `runs`, the
    index of the first in raster order (the leftmost run on the top row),
    the limits, sum(N8) as `trace_contour` states it, and the number of
    touching pairs. Runs are sorted by row, then by x0, so the head is the
    smallest index and the bottom row is the largest index's; both, and
    the left and right limits, are kept as the runs are visited. Each
    pair is counted from its upper run.
    """
    rows, x0s, x1s = (a.tolist() for a in runs)
    first = rows[0]
    # starts[r] is the index of the first run of row first + r, for the
    # rows from the first run's to one past the last run's
    starts = np.searchsorted(runs[0], np.arange(first, rows[-1] + 2)).tolist()
    n_rows = len(starts) - 1
    flags = bytearray(len(rows))
    stack = []
    for x, y in seeds:
        # a seed's run: the first of its row whose x1 >= x
        i = bisect_left(x1s, x, starts[y - first], starts[y - first + 1])
        flags[i] = 1
        stack.append(i)
    head = tail = i
    left, right = x0s[i], x1s[i]
    visits = pairs = 0
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
        visits += 2 * (b - a)
        if r:
            # from the first run of the row above whose x1 >= a - reach,
            # while x0 <= b + reach
            end = starts[r]
            j = bisect_left(x1s, a - reach, starts[r - 1], end)
            while j < end and x0s[j] <= b + reach:
                if not flags[j]:
                    flags[j] = 1
                    stack.append(j)
                j += 1
        if r + 1 < n_rows:
            # the same in the row below, counting each pair from above
            end = starts[r + 2]
            j = bisect_left(x1s, a - reach, starts[r + 1], end)
            while j < end and x0s[j] <= b + reach:
                c, d = x0s[j], x1s[j]
                visits += ((a == c) + (b == d)
                           - 2 * ((b if b < d else d) - (a if a > c else c)))
                pairs += 1
                if not flags[j]:
                    flags[j] = 1
                    stack.append(j)
                j += 1
    return flags, head, (rows[head], rows[tail], left, right), visits, pairs


def _holes(runs, flags, top: int, bottom: int, cell: tuple[int, int]):
    """What filling a component's holes drops from its sum(N8), and whether
    pixel `cell` lies in a hole.

    The gaps are the spans between consecutive runs of the component in
    one row. A gap is outer background when it lies in the top or the
    bottom row, when it reaches past the component's span in the row above
    or below, or when it overlaps an outer gap in the row above or below
    (4-connected); the rest are the holes. Filling them drops
    2 * len + 2 for each hole gap, less 2 * overlap + [a != c] + [b != d]
    for each hole gap (a, b) overlapping a hole gap (c, d) in the row
    below.
    """
    comp = np.flatnonzero(np.frombuffer(flags, dtype=bool))
    rows, x0s, x1s = (a[comp] for a in runs)
    inner = rows[1:] == rows[:-1]  # run k + 1 follows run k in its row
    gy, ga, gb = rows[1:][inner], x1s[:-1][inner] + 1, x0s[1:][inner] - 1
    # each row's span, from its first run's x0 to its last run's x1
    lo, hi = x0s[np.r_[True, ~inner]], x1s[np.r_[~inner, True]]
    up = np.maximum(gy - top - 1, 0)
    down = np.minimum(gy - top + 1, bottom - top)
    seeds = ((gy == top) | (gy == bottom) | (ga < lo[up]) | (gb > hi[up])
             | (ga < lo[down]) | (gb > hi[down]))
    hole = np.ones(gy.size, dtype=bool)
    if seeds.any():
        outer = _component_runs((gy, ga, gb), zip(ga[seeds].tolist(),
                                                  gy[seeds].tolist()), 0)[0]
        hole = ~np.frombuffer(outer, dtype=bool)
    # The gaps (a, b) of the row above that overlap each hole gap (c, d):
    # from the first whose b >= c to the last whose a <= d, found in keys
    # row * stride + x that sort as (row, x).
    stride = int(gb.max()) + 1
    key = gy * stride
    first = np.searchsorted(key + gb, key - stride + ga)
    n = np.maximum(np.searchsorted(key + ga, key - stride + gb, "right")
                   - first, 0) * hole
    j = np.repeat(np.arange(gy.size), n)
    i = np.repeat(first - np.cumsum(n) + n, n) + np.arange(j.size)
    a, b, c, d = ga[i], gb[i], ga[j], gb[j]
    overlap = np.minimum(b, d) - np.maximum(a, c) + 1
    dropped = (int((2 * (gb - ga) + 4)[hole].sum())
               - int((2 * overlap + (a != c) + (b != d)).sum()))
    x, y = cell
    return dropped, bool(np.any(hole & (gy == y) & (ga <= x) & (x <= gb)))


def locate(mask: PackedBinaryMask, params: ScanParams = ScanParams(), *,
           fill_count: bool = False) -> Optional[RegionDescriptor]:
    """Scan for the first qualifying run and describe its component.

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
