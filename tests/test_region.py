from dataclasses import replace

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
from oracles import (anchor_oracle, flood_oracle, flood_pixels,
                     reference_walk, with_trailing_bits, zeros_mask)


def mask_from(bits):
    return PackedBinaryMask.from_bool(np.asarray(bits, dtype=bool))


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


def assert_fill_matches_oracle(bits, start):
    _, n, centroid = flood_oracle(bits, start)
    reg = trace_contour(mask_from(bits), start, fill_count=True)
    assert (reg.pixel_count, reg.centroid_x, reg.centroid_y) == (n, *centroid)


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


def test_crop_above_the_last_row_is_exact_exhaustive():
    # the loop's crop rule on every 4x4 mask, every crop of 1-3 rows (4 is
    # the whole mask) and every min_width: a region that ends above the
    # crop's last row is the whole mask's, every field; the crop's region
    # is located once for all the rows below it
    h, w = 4, 4
    place = np.arange(h * w).reshape(h, w)
    for min_width in range(1, w + 1):
        params = ScanParams(min_width)
        full = {}
        accepted = 0
        for g in range(1, h):
            for top in range(1 << (g * w)):
                reg = locate(mask_from((top >> place[:g]) & 1 == 1), params,
                             fill_count=True)
                if reg is None or reg.bottom == g - 1:
                    continue
                for low in range(1 << ((h - g) * w)):
                    code = top | low << (g * w)
                    if code not in full:
                        full[code] = repr(locate(
                            mask_from((code >> place) & 1 == 1), params,
                            fill_count=True))
                    assert repr(reg) == full[code], (code, g, min_width)
                    accepted += 1
        assert accepted


@st.composite
def masks_and_crops(draw):
    """Masks of 1-12 x 1-10 and a crop height. Some rows are left empty,
    so components end inside the crop as well as run past it."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((h, w)) < draw(st.floats(0.05, 0.8))
    bits[rng.random(h) < draw(st.floats(0.0, 0.6))] = False
    return bits, draw(st.integers(1, h))


@given(masks_and_crops(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_crop_above_the_last_row_is_exact_property(mask_and_crop, min_width):
    # when locate on the first g rows finds a region that ends above the
    # crop's last row, it is locate's region on the whole mask, every field
    bits, g = mask_and_crop
    params = ScanParams(min_width)
    reg = locate(mask_from(bits[:g]), params, fill_count=True)
    if reg is not None and reg.bottom < g - 1:
        assert repr(reg) == repr(locate(mask_from(bits), params,
                                        fill_count=True))


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


def assert_components_match_oracles(bits):
    """Every component of bits, traced with the fill from one of its
    pixels, equals the reference walk from its anchor, with the flood
    fill's pixel count and centroid: holes are never filled for those."""
    mask = mask_from(bits)
    seen = np.zeros_like(bits)
    for y, x in zip(*np.nonzero(bits)):
        if seen[y, x]:
            continue
        start = int(x), int(y)
        for px, py in flood_pixels(bits, start):
            seen[py, px] = True
        _, n, (cx, cy) = flood_oracle(bits, start)
        assert trace_contour(mask, start, fill_count=True) == replace(
            reference_walk(bits, anchor_oracle(bits, start)), pixel_count=n,
            centroid_x=cx, centroid_y=cy), start


def picture(*rows):
    return np.array([[c == "#" for c in row] for row in rows])


HOLED = {
    "ring-around-island": (disk(25, 25, 12, 12, 10) & ~disk(25, 25, 12, 12, 7))
    | disk(25, 25, 12, 12, 3),
    "nested-rings": (disk(29, 29, 14, 14, 13) & ~disk(29, 29, 14, 14, 11))
    | (disk(29, 29, 14, 14, 8) & ~disk(29, 29, 14, 14, 6))
    | disk(29, 29, 14, 14, 2),
    # the start is the head run's right end, and the cell below it is a hole
    "hole-below-one-pixel-head": picture(".#.",
                                         "#.#",
                                         ".#."),
    "hole-below-wide-head": picture("##.",
                                    "#.#",
                                    "###"),
    "wide-hole-below-wide-head": picture("###..",
                                         "#..#.",
                                         "#...#",
                                         "#####"),
    "hole-gaps-overlapping": picture("#####.",
                                     "#..###",
                                     "#...#.",
                                     "##..##",
                                     "######"),
    "hole-gaps-touching-diagonally": picture("#####",
                                             "#.###",
                                             "##.##",
                                             "###.#",
                                             "#####"),
}


@pytest.mark.parametrize("name", HOLED)
def test_holed_components_match_walk_and_flood_fill(name, monkeypatch):
    calls = []
    holes = region._holes
    monkeypatch.setattr(region, "_holes",
                        lambda *args: calls.append(args) or holes(*args))
    assert_components_match_oracles(HOLED[name])
    assert calls  # the hole pass ran


@st.composite
def punched_shapes(draw):
    """A filled rectangle or ellipse of 3-20 x 3-20 pixels with some of its
    pixels punched out."""
    h, w = draw(st.integers(3, 20)), draw(st.integers(3, 20))
    if draw(st.booleans()):
        bits = np.ones((h, w), dtype=bool)
    else:
        yy, xx = np.mgrid[:h, :w]
        bits = ((2 * xx + 1 - w) / w) ** 2 + ((2 * yy + 1 - h) / h) ** 2 <= 1
    punched = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    for x, y in draw(st.lists(punched, max_size=h * w // 3)):
        bits[y, x] = False
    return bits


@given(punched_shapes())
@settings(max_examples=150, deadline=None)
def test_punched_shapes_match_walk_and_flood_fill_property(bits):
    assert_components_match_oracles(bits)


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


def test_descriptor_has_slots_and_round_trips():
    import copy
    import pickle
    from dataclasses import replace
    reg = RegionDescriptor(top=1, bottom=5, left=2, right=8, center_x=5,
                           center_y=3, contour_length=12, pixel_count=30,
                           centroid_x=5.5, centroid_y=3.25)
    assert not hasattr(reg, "__dict__")
    assert pickle.loads(pickle.dumps(reg)) == reg
    assert copy.copy(reg) == reg and copy.deepcopy(reg) == reg
    moved = replace(reg, top=0, center_y=2)
    assert (moved.top, moved.center_y, moved.bottom) == (0, 2, 5)
    assert reg.top == 1
    with pytest.raises(AttributeError):
        reg.top = 0


def test_descriptor_serialization():
    reg = RegionDescriptor(top=1, bottom=5, left=2, right=8,
                           center_x=5, center_y=3, contour_length=12)
    assert "center (5, 3)" in reg.report_line()
