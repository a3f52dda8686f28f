import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colortrack.harness import Scenario
from colortrack.imaging import render
from colortrack.plant import CameraPose
from colortrack import region
from colortrack.region import (RegionDescriptor, ScanParams, _runs,
                               find_initial_run, locate, trace_contour)
from colortrack.segmentation import PackedBinaryMask, segment_rgb
from oracles import zeros_mask


def mask_from(bits):
    return PackedBinaryMask.from_bool(np.asarray(bits, dtype=bool))


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
    where the walk must start whichever pixel it is given."""
    top, left = min((y, x) for x, y in flood_pixels(bits, seed))
    return run_end(bits, left, top), top


def reference_initial_run(bits, min_width):
    """Per-row scan for the first run of >= min_width set pixels."""
    for y in range(bits.shape[0]):
        cols = np.flatnonzero(bits[y])
        if cols.size == 0:
            continue
        breaks = np.flatnonzero(np.diff(cols) > 1)
        for run in np.split(cols, breaks + 1):
            if run.size >= min_width:
                return y, int(run[0]), int(run[-1])
    return None


def run_end(bits, x, y):
    """Right end of the horizontal run holding set pixel (x, y)."""
    while x + 1 < bits.shape[1] and bits[y, x + 1]:
        x += 1
    return x


def assert_fill_matches_oracle(bits, start):
    _, n, centroid = flood_oracle(bits, start)
    reg = trace_contour(mask_from(bits), start, fill_count=True)
    assert (reg.pixel_count, reg.centroid_x, reg.centroid_y) == (n, *centroid)


_DX = (1, 1, 0, -1, -1, -1, 0, 1)  # E, NE, N, NW, W, SW, S, SE
_DY = (0, -1, -1, -1, 0, 1, 1, 1)


def reference_walk(bits, start):
    """Counter-clockwise Moore walk on the numpy array, the walk's oracle.

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


def test_scan_params_validation():
    with pytest.raises(ValueError):
        ScanParams(0)


def test_find_initial_run_empty():
    assert find_initial_run(zeros_mask(16, 16), ScanParams(1)) is None


def test_find_initial_run_single():
    bits = np.zeros((16, 16), dtype=bool)
    bits[5, 10:15] = True
    assert find_initial_run(mask_from(bits), ScanParams(3)) == (5, 10, 14)


def test_find_initial_run_skips_narrow():
    bits = np.zeros((16, 16), dtype=bool)
    bits[3, 2:4] = True  # width 2
    bits[7, 5:9] = True  # width 4
    row, left, right = find_initial_run(mask_from(bits), ScanParams(3))
    assert row == 7 and left == 5 and right == 8


def test_trace_filled_square():
    bits = np.zeros((20, 20), dtype=bool)
    bits[10:13, 10:13] = True
    reg = trace_contour(mask_from(bits), (12, 10))
    assert (reg.top, reg.bottom, reg.left, reg.right) == (10, 12, 10, 12)
    assert (reg.center_x, reg.center_y) == (11, 11)
    assert reg.contour_length == 8


def test_trace_single_pixel():
    bits = np.zeros((8, 8), dtype=bool)
    bits[4, 4] = True
    reg = trace_contour(mask_from(bits), (4, 4))
    assert (reg.top, reg.bottom, reg.left, reg.right) == (4, 4, 4, 4)
    assert (reg.center_x, reg.center_y) == (4, 4)
    assert reg.contour_length == 1


def test_trace_requires_set_start():
    with pytest.raises(ValueError, match="not a set pixel"):
        trace_contour(zeros_mask(4, 4), (1, 1))
    full = mask_from(np.ones((4, 4), dtype=bool))
    for outside in ((-1, 0), (0, -1), (4, 0), (0, 4)):
        with pytest.raises(ValueError, match="not a set pixel"):
            trace_contour(full, outside)


def test_trace_one_pixel_spur():
    # a spur hanging off a square defeats the naive stop-at-start rule when
    # the start sits on the spur; the jacob rule walks the full contour
    bits = np.zeros((10, 10), dtype=bool)
    bits[4:7, 2:5] = True
    bits[2, 3] = True  # spur pixel above
    bits[3, 3] = True
    reg = trace_contour(mask_from(bits), (3, 2))
    assert (reg.top, reg.bottom, reg.left, reg.right) == (2, 6, 2, 4)


def test_fill_count_and_centroid():
    bits = np.zeros((10, 10), dtype=bool)
    bits[2:4, 2:6] = True  # 4x2 block
    reg = trace_contour(mask_from(bits), (5, 2), fill_count=True)
    assert reg.pixel_count == 8
    assert reg.centroid_x == pytest.approx(3.5)
    assert reg.centroid_y == pytest.approx(2.5)


def random_blob(rng, w=32, h=32, steps=60):
    """Connected 8-connected blob grown by a random walk."""
    bits = np.zeros((h, w), dtype=bool)
    x, y = int(rng.integers(4, w - 4)), int(rng.integers(4, h - 4))
    bits[y, x] = True
    for _ in range(steps):
        x = min(max(x + int(rng.integers(-1, 2)), 0), w - 1)
        y = min(max(y + int(rng.integers(-1, 2)), 0), h - 1)
        bits[y, x] = True
    return bits


@pytest.mark.parametrize("seed", range(25))
def test_trace_limits_match_flood_fill(seed):
    rng = np.random.default_rng(seed)
    bits = random_blob(rng)
    mask = mask_from(bits)
    run = find_initial_run(mask, ScanParams(1))
    row, _, right = run
    reg = trace_contour(mask, (right, row))
    assert (reg.top, reg.bottom, reg.left, reg.right) == \
        flood_oracle(bits, (right, row))[0]


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_trace_limits_match_flood_fill_property(seed):
    rng = np.random.default_rng(seed)
    bits = random_blob(rng, steps=int(rng.integers(1, 120)))
    mask = mask_from(bits)
    row, _, right = find_initial_run(mask, ScanParams(1))
    reg = trace_contour(mask, (right, row))
    assert (reg.top, reg.bottom, reg.left, reg.right) == \
        flood_oracle(bits, (right, row))[0]
    assert reg.contour_length <= 4 * 32 * 32


def assert_locate_limits_match_oracle(bits, min_width):
    reg = locate(mask_from(bits), ScanParams(min_width))
    run = reference_initial_run(bits, min_width)
    if run is None:
        assert reg is None
        return
    box = flood_oracle(bits, (run[2], run[0]))[0]
    assert (reg.top, reg.bottom, reg.left, reg.right) == box


@pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
def test_exhaustive_small_masks(shape):
    # every 3x4 and 4x3 mask: the scan against the per-row reference,
    # locate's limits against the flood-fill oracle's box, and the fill
    # from each start against the flood-fill oracle
    h, w = shape
    place = np.arange(h * w).reshape(shape)
    for code in range(1 << (h * w)):
        bits = (code >> place) & 1 == 1
        mask = mask_from(bits)
        starts = set()
        for min_width in (1, 2, 3):
            run = find_initial_run(mask, ScanParams(min_width))
            assert run == reference_initial_run(bits, min_width), (code, min_width)
            if run is not None:
                starts.add((run[2], run[0]))
            assert_locate_limits_match_oracle(bits, min_width)
        for start in starts:
            assert_fill_matches_oracle(bits, start)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
def test_trace_matches_reference_walk_exhaustive(shape):
    # every field, contour_length included, from every set pixel of every
    # mask, against the reference walk from the component's anchor
    h, w = shape
    place = np.arange(h * w).reshape(shape)
    for code in range(1 << (h * w)):
        bits = (code >> place) & 1 == 1
        mask = mask_from(bits)
        for y, x in zip(*np.nonzero(bits)):
            start = int(x), int(y)
            assert trace_contour(mask, start) == \
                reference_walk(bits, anchor_oracle(bits, start)), (code, start)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
def test_locate_descriptor_independent_of_min_width(shape):
    # whenever two min_widths find their first run in the same component,
    # locate describes that component identically, contour length included
    h, w = shape
    place = np.arange(h * w).reshape(shape)
    for code in range(1 << (h * w)):
        bits = (code >> place) & 1 == 1
        mask = mask_from(bits)
        by_anchor = {}
        for min_width in (1, 2, 3):
            run = find_initial_run(mask, ScanParams(min_width))
            if run is None:
                continue
            reg = locate(mask, ScanParams(min_width), fill_count=True)
            anchor = anchor_oracle(bits, (run[2], run[0]))
            assert by_anchor.setdefault(anchor, reg) == reg, (code, min_width)


@pytest.mark.parametrize("rows, min_width, run, limits, count", [
    # the first run of width >= 2 is row 1's; the pixel east of it is a hole
    # of the component, whose top is the single pixel of row 0
    (["0010",
      "1101",
      "0010"], 2, (1, 0, 1), (0, 2, 0, 3), 5),
    # two rows below the top: the run in between also has a hole east of it
    (["000011",
      "001101",
      "111010",
      "100010"], 3, (2, 0, 2), (0, 3, 0, 5), 11),
], ids=["one-row-below", "two-rows-below"])
def test_locate_first_wide_run_below_its_component_top(rows, min_width, run,
                                                       limits, count):
    bits = np.array([[c == "1" for c in row] for row in rows])
    assert find_initial_run(mask_from(bits), ScanParams(min_width)) == run
    reg = locate(mask_from(bits), ScanParams(min_width), fill_count=True)
    assert (reg.top, reg.bottom, reg.left, reg.right) == limits
    assert reg.pixel_count == count


random_masks = st.builds(
    lambda seed, density: np.random.default_rng(seed).random((32, 32)) < density,
    st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))


@given(random_masks)
@settings(max_examples=100, deadline=None)
def test_runs_round_trip_property(bits):
    rows, x0, x1 = _runs(bits)
    rebuilt = np.zeros_like(bits)
    for y, a, b in zip(rows, x0, x1):
        assert not rebuilt[y, a:b + 1].any()
        rebuilt[y, a:b + 1] = True
    assert np.array_equal(rebuilt, bits)
    # sorted by (row, x0), and runs in one row never touch
    order = np.lexsort((x0, rows))
    assert np.array_equal(order, np.arange(rows.size))
    same_row = rows[1:] == rows[:-1]
    assert np.all(x0[1:][same_row] > x1[:-1][same_row] + 1)


@given(random_masks, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fill_from_any_pixel_property(bits, pick):
    ys, xs = np.nonzero(bits)
    if ys.size == 0:
        return
    assert_fill_matches_oracle(
        bits, (int(xs[pick % ys.size]), int(ys[pick % ys.size])))


@given(random_masks, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_trace_matches_reference_walk_property(bits, pick):
    ys, xs = np.nonzero(bits)
    if ys.size == 0:
        return
    start = int(xs[pick % ys.size]), int(ys[pick % ys.size])
    assert trace_contour(mask_from(bits), start) == \
        reference_walk(bits, anchor_oracle(bits, start))


@given(random_masks, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_locate_limits_match_flood_fill_property(bits, min_width):
    assert_locate_limits_match_oracle(bits, min_width)


def disk(h, w, cx, cy, r):
    yy, xx = np.mgrid[:h, :w]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def test_fill_skips_disk_inside_ring_hole():
    ring = disk(25, 25, 12, 12, 10) & ~disk(25, 25, 12, 12, 7)
    inner = disk(25, 25, 12, 12, 3)
    bits = ring | inner
    reg = locate(mask_from(bits), ScanParams(3), fill_count=True)
    assert (reg.top, reg.bottom, reg.left, reg.right) == (2, 22, 2, 22)
    assert reg.pixel_count == int(ring.sum())
    assert (reg.centroid_x, reg.centroid_y) == (12.0, 12.0)
    reg = trace_contour(mask_from(bits), (15, 12), fill_count=True)
    assert reg.pixel_count == int(inner.sum())


def test_fill_object_touching_right_and_bottom_edges():
    bits = np.zeros((16, 20), dtype=bool)
    bits[11:, 14:] = True  # 6 wide, 5 tall, in the bottom-right corner
    reg = locate(mask_from(bits), ScanParams(3), fill_count=True)
    assert (reg.top, reg.bottom, reg.left, reg.right) == (11, 15, 14, 19)
    assert reg.pixel_count == 30
    assert (reg.centroid_x, reg.centroid_y) == (16.5, 13.0)


@pytest.mark.parametrize("slope", [1, -1])
def test_fill_diagonal_chain_joins_at_corners(slope):
    bits = np.zeros((8, 8), dtype=bool)
    for i in range(8):
        bits[i, i if slope == 1 else 7 - i] = True
    assert len(_runs(bits)[0]) == 8
    reg = locate(mask_from(bits), ScanParams(1), fill_count=True)
    assert (reg.top, reg.bottom, reg.left, reg.right) == (0, 7, 0, 7)
    assert reg.pixel_count == 8
    assert (reg.centroid_x, reg.centroid_y) == (3.5, 3.5)


def test_locate_centered_disk():
    s = Scenario()
    frame = render(s.scene_at(0.0), CameraPose(), s.intrinsics)
    mask = segment_rgb(frame, s.picked_threshold())
    reg = locate(mask)
    assert abs(reg.center_x - 160) <= 1
    assert abs(reg.center_y - 120) <= 1


def test_locate_reports_first_blob_only():
    bits = np.zeros((20, 20), dtype=bool)
    bits[2:5, 2:5] = True  # upper-left, found first in scan order
    bits[10:15, 10:15] = True
    reg = locate(mask_from(bits), ScanParams(3))
    assert (reg.top, reg.left) == (2, 2) and (reg.bottom, reg.right) == (4, 4)


def test_locate_calls_scan_and_walk_through_region_names(monkeypatch):
    # the benchmark traces the scan and the walk by patching these names in
    # region, so locate must call each once per region it finds, and hand
    # both the one encoding it made
    calls = {"find_initial_run": [], "trace_contour": []}
    for name in calls:
        def counting(*args, name=name, fn=getattr(region, name), **kwargs):
            calls[name].append(kwargs)
            return fn(*args, **kwargs)
        monkeypatch.setattr(region, name, counting)
    blob = np.zeros((16, 16), dtype=bool)
    blob[4:9, 3:10] = True
    narrow = np.zeros((16, 16), dtype=bool)
    narrow[5, 5:7] = True
    found = [locate(mask_from(bits), ScanParams(3), fill_count=fill)
             for bits in (blob, narrow, blob) for fill in (False, True)]
    assert [reg is not None for reg in found] == [True, True, False, False,
                                                  True, True]
    scans, walks = calls["find_initial_run"], calls["trace_contour"]
    assert len(scans) == 6 and all(k.keys() == {"encoding"} for k in scans)
    assert [sorted(k) for k in walks] == [["encoding", "fill_count"]] * 4
    assert [k["fill_count"] for k in walks] == [False, True] * 2
    # the scans of the four located masks are calls 0, 1, 4 and 5
    for scan, walk in zip([scans[i] for i in (0, 1, 4, 5)], walks):
        assert walk["encoding"] is scan["encoding"]
    assert len({id(k["encoding"]) for k in scans}) == 6


@given(random_masks, st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_shared_encoding_gives_same_results_property(bits, min_width, pick,
                                                     fill):
    # the scan and the walk give the same result whether they encode the
    # mask themselves or are handed its encoding
    mask = mask_from(bits)
    encoding = region._encode(mask)
    params = ScanParams(min_width)
    assert find_initial_run(mask, params, encoding=encoding) == \
        find_initial_run(mask, params)
    ys, xs = np.nonzero(bits)
    if ys.size == 0:
        return
    start = int(xs[pick % ys.size]), int(ys[pick % ys.size])
    assert trace_contour(mask, start, fill_count=fill, encoding=encoding) == \
        trace_contour(mask, start, fill_count=fill)


def with_trailing_bits(mask):
    """The same mask built from its words with every bit past width*height
    set, as PackedBinaryMask(w, h, words) accepts."""
    words = mask.words.copy()
    used = mask.width * mask.height % 32
    if used:
        words[-1] |= np.uint32((0xFFFFFFFF << used) & 0xFFFFFFFF)
    return PackedBinaryMask(mask.width, mask.height, words)


def assert_band_encoding_exact(bits, min_width):
    # the band's runs are the whole mask's, the band is a slice of the
    # mask's rows holding every set row, and locate, with the fill, is the
    # flood-fill oracle's; bits past width*height change none of it
    mask = mask_from(bits)
    for m in (mask, with_trailing_bits(mask)):
        top, band, runs = region._encode(m)
        assert all(np.array_equal(a, b) for a, b in zip(runs, _runs(bits)))
        assert 0 <= top and top + len(band) <= bits.shape[0]
        assert np.array_equal(band, bits[top:top + len(band)])
        assert band.sum() == bits.sum()
    reg = locate(mask, ScanParams(min_width), fill_count=True)
    assert locate(with_trailing_bits(mask), ScanParams(min_width),
                  fill_count=True) == reg
    run = reference_initial_run(bits, min_width)
    if run is None:
        assert reg is None
        return
    box, n, centroid = flood_oracle(bits, (run[2], run[0]))
    assert ((reg.top, reg.bottom, reg.left, reg.right), reg.pixel_count,
            (reg.centroid_x, reg.centroid_y)) == (box, n, centroid)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
def test_band_encoding_exhaustive(shape):
    # every 3x4 and 4x3 mask: 12 bits, so the one word has 20 trailing bits
    h, w = shape
    place = np.arange(h * w).reshape(shape)
    for code in range(1 << (h * w)):
        assert_band_encoding_exact((code >> place) & 1 == 1, 1 + code % 3)


@st.composite
def banded_masks(draw):
    """Masks of 1-40 x 1-12 whose set pixels lie in a band of rows, which
    may start at row 0 or end at the last row; rows of most widths
    straddle a word boundary."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    top = draw(st.one_of(st.just(0), st.integers(0, h - 1)))
    bottom = draw(st.one_of(st.just(h - 1), st.integers(top, h - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = np.zeros((h, w), dtype=bool)
    bits[top:bottom + 1] = (rng.random((bottom - top + 1, w))
                            < draw(st.floats(0.05, 0.9)))
    return bits


@given(banded_masks(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_band_encoding_property(bits, min_width):
    assert_band_encoding_exact(bits, min_width)


def test_bits_past_the_mask_are_never_read():
    # 5x5: the one word's bits 25-31 are past the mask
    bits = np.zeros((5, 5), dtype=bool)
    bits[3:, 1:4] = True
    for b in (bits, np.zeros_like(bits)):
        read = with_trailing_bits(mask_from(b))
        assert read.words[-1] >> 25 == 0x7F
        assert locate(read, ScanParams(1), fill_count=True) == \
            locate(mask_from(b), ScanParams(1), fill_count=True)
    assert locate(read) is None


def test_locate_empty_mask():
    assert locate(zeros_mask(16, 16)) is None
    top, band, runs = region._encode(zeros_mask(16, 16))
    assert band.shape == (0, 16) and all(a.size == 0 for a in runs)


def test_locate_deterministic():
    rng = np.random.default_rng(42)
    bits = random_blob(rng)
    a = locate(mask_from(bits), ScanParams(1))
    b = locate(mask_from(bits), ScanParams(1))
    assert a == b


def test_descriptor_serialization():
    reg = RegionDescriptor(top=1, bottom=5, left=2, right=8,
                           center_x=5, center_y=3, contour_length=12)
    assert "center (5, 3)" in reg.report_line()
