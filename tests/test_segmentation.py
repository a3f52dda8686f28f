import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from colortrack import harness, imaging
from colortrack import segmentation as seg
from colortrack.harness import Scenario
from colortrack.imaging import Frame, widen
from colortrack.region import ScanParams, locate
from colortrack.segmentation import (ChromaThreshold, PackedBinaryMask,
                                     RgbBoxThreshold, chromaticity,
                                     segment_chroma, segment_rgb,
                                     threshold_from_pick)
from oracles import (filled_frame, mask_get, mask_set, naive_verdict,
                     record_of, with_trailing_bits, zeros_mask)


def naive_bits(frame, threshold):
    """Unpacked per-pixel reference segmentation (no bit packing)."""
    out = np.zeros((frame.height, frame.width), dtype=bool)
    for y in range(frame.height):
        for x in range(frame.width):
            out[y, x] = naive_verdict(*widen(int(frame.pixels[y, x])),
                                      threshold)
    return out


def random_frame(rng, w=32, h=32):
    return Frame(w, h, rng.integers(0, 0x10000, (h, w)).astype(np.uint16))


def test_chromaticity_examples():
    r, g = chromaticity(85, 85, 85)
    assert r == pytest.approx(1 / 3) and g == pytest.approx(1 / 3)
    assert chromaticity(100, 50, 50) == chromaticity(200, 100, 100)
    assert chromaticity(100, 50, 50) == (0.5, 0.25)
    assert type(chromaticity(100, 50, 50)) is tuple
    assert chromaticity(0, 0, 0) is None


@given(st.integers(1, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000))
@settings(max_examples=300)
def test_chromaticity_exact_scale_invariance(r, g, b, s):
    # exact rational arithmetic: the normalization cancels any positive scale
    r, g, b = Fraction(r), Fraction(g), Fraction(b)
    assert chromaticity(r * s, g * s, b * s) == chromaticity(r, g, b)


def test_threshold_from_pick_rgb():
    t = threshold_from_pick((128, 128, 128), "rgb")
    assert (t.r_min, t.r_max) == (104, 152)
    assert (t.g_min, t.g_max) == (104, 152)
    assert (t.b_min, t.b_max) == (104, 152)


def test_threshold_from_pick_rgb_clamps():
    t = threshold_from_pick((250, 10, 10), "rgb")
    assert t.r_max == 255
    assert t.g_min == 0 and t.b_min == 0


def test_threshold_from_pick_chroma():
    t = threshold_from_pick((200, 100, 100), "chroma")
    assert (t.r_min, t.r_max) == pytest.approx((0.45, 0.55))
    assert (t.g_min, t.g_max) == pytest.approx((0.20, 0.30))
    assert t.i_min == 30


def test_threshold_from_pick_black_chroma_rejected():
    with pytest.raises(ValueError, match="black"):
        threshold_from_pick((0, 0, 0), "chroma")


def test_threshold_validation():
    with pytest.raises(ValueError):
        RgbBoxThreshold(10, 5, 0, 255, 0, 255)
    with pytest.raises(ValueError):
        ChromaThreshold(0.5, 0.4, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=0)
    with pytest.raises(ValueError):
        ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=float("nan"))


# -- packed mask addressing --------------------------------------------------

def test_mask_word_count_qvga():
    mask = zeros_mask(320, 240)
    assert len(mask.words) == 2400


def test_mask_rejects_wrong_word_count():
    with pytest.raises(ValueError, match="expected 1 words"):
        PackedBinaryMask(4, 4, np.zeros(2, np.uint32))


def test_mask_addressing_definition():
    mask = zeros_mask(320, 240)
    mask_set(mask, 0, 0, 1)
    assert mask.words[0] == 1
    mask_set(mask, 0, 0, 0)
    mask_set(mask, 31, 0, 1)
    assert mask.words[0] == 1 << 31
    mask_set(mask, 31, 0, 0)
    mask_set(mask, 32, 0, 1)
    assert mask.words[1] == 1


def test_mask_bounds():
    mask = zeros_mask(8, 8)
    with pytest.raises(IndexError):
        mask_get(mask, 8, 0)
    with pytest.raises(IndexError):
        mask_set(mask, 0, -1, 1)


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 11),
                          st.integers(0, 1)), max_size=60))
def test_mask_set_get_matches_boolean_oracle(ops):
    mask = zeros_mask(20, 12)
    ref = np.zeros((12, 20), dtype=bool)
    for x, y, bit in ops:
        mask_set(mask, x, y, bit)
        ref[y, x] = bool(bit)
    for x, y, _ in ops:
        assert mask_get(mask, x, y) == int(ref[y, x])
    assert np.array_equal(mask.to_bool(), ref)


def test_pack_round_trip_and_trailing_zeros():
    rng = np.random.default_rng(11)
    bits = rng.random((7, 9)) < 0.5  # 63 bits: one partial trailing word
    mask = PackedBinaryMask.from_bool(bits)
    assert np.array_equal(mask.to_bool(), bits)
    assert (int(mask.words[-1]) >> (63 % 32)) == 0


@settings(max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 40), st.integers(1, 40))))
def test_pack_without_copies_is_exact_and_independent(bits):
    # most of the drawn shapes have a pixel count that is not a multiple
    # of 32, so the last word is partial
    source = bits.copy()
    mask = PackedBinaryMask.from_bool(bits)
    packed = np.unpackbits(mask.words.astype("<u4").view(np.uint8),
                           bitorder="little")
    assert not packed[bits.size:].any()  # trailing bits stay zero
    back = mask.to_bool()
    assert back.dtype == bool and back.shape == bits.shape
    assert np.array_equal(back, bits)
    assert back.flags.writeable and not np.shares_memory(back, mask.words)
    x, y = bits.shape[1] - 1, bits.shape[0] - 1
    mask_set(mask, x, y, not bits[y, x])
    assert np.array_equal(bits, source)  # the words do not alias the source
    assert mask_get(mask, x, y) != bits[y, x]


@settings(max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 40))))
def test_band_holds_every_set_row(bits):
    # the band unpacks as the same rows of the whole mask and holds every
    # set row, even with every bit past width*height set
    h = bits.shape[0]
    mask = PackedBinaryMask.from_bool(bits)
    for m in (mask, with_trailing_bits(mask)):
        top, band = m.band()
        stop = top + len(band)
        assert 0 <= top <= stop <= h and band.shape[1] == bits.shape[1]
        assert not bits[:top].any() and not bits[stop:].any()
        assert np.array_equal(band, bits[top:stop])
    assert (len(mask.band()[1]) == 0) == (not bits.any())


@settings(max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(0, 12), st.integers(0, 40))))
def test_count_is_the_number_of_set_pixels(bits):
    # empty, zero-area and full masks included, and every bit past
    # width*height set, which count must not see
    mask = PackedBinaryMask.from_bool(bits)
    for m in (mask, with_trailing_bits(mask)):
        assert m.count() == m.to_bool().sum() == bits.sum()


def test_pbm_export_msb_first(tmp_path):
    bits = np.zeros((1, 8), dtype=bool)
    bits[0, 0] = True  # leftmost pixel -> MSB of the first PBM byte
    p = tmp_path / "m.pbm"
    seg.write_pbm(PackedBinaryMask.from_bool(bits), p)
    data = p.read_bytes()
    assert data.startswith(b"P4\n8 1\n")
    assert data[-1] == 0x80


def pbm_reference(bits):
    """P4 bytes built pixel by pixel: each row MSB-first, padded to a byte."""
    h, w = bits.shape
    out = bytearray(b"P4\n%d %d\n" % (w, h))
    for row in bits:
        for x0 in range(0, w, 8):
            out.append(sum(int(b) << (7 - i)
                           for i, b in enumerate(row[x0:x0 + 8])))
    return bytes(out)


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("width", range(1, 18))
def test_pbm_export_matches_per_row_reference(tmp_path, width, height):
    rng = np.random.default_rng(1000 * width + height)
    p = tmp_path / "m.pbm"
    for _ in range(4):
        bits = rng.random((height, width)) < 0.5
        mask = PackedBinaryMask.from_bool(bits)
        for m in (mask, with_trailing_bits(mask)):
            seg.write_pbm(m, p)
            assert p.read_bytes() == pbm_reference(bits)


# Every writer in the library, each with a fixed object to write; all of
# them write through imaging.rewrite.
_FRAME = Frame(21, 9, np.random.default_rng(5).integers(0, 1 << 16, (9, 21)))
_MASK = PackedBinaryMask.from_bool(np.random.default_rng(5).random((9, 21))
                                   < 0.5)
_RECORD = record_of([
    harness.TrajectoryRow(0.0, 1.5, -2.25, 0.5, -0.75, 0.0, 0.0, 161, 118,
                          True),
    harness.TrajectoryRow(0.1, np.nan, np.nan, 0.5, -0.75, 0.2, -0.1, -1, -1,
                          False)])
_METRICS = harness.TrackingMetrics(None, 5.25, 87.5, 0.125, 1)
WRITERS = {
    "pbm": lambda p: seg.write_pbm(_MASK, p),
    "words": lambda p: seg.write_mask_words(_MASK, p),
    "ppm": lambda p: imaging.write_ppm(_FRAME, p),
    "rgb565": lambda p: imaging.write_rgb565(_FRAME, p),
    "csv": lambda p: harness.write_csv(_RECORD, p),
    "report": lambda p: harness.write_report(_METRICS, p),
}


@pytest.mark.parametrize("old_size", ["longer", "equal", "shorter"])
@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_over_an_existing_file_equals_a_fresh_write(
        tmp_path, writer, old_size):
    fresh = tmp_path / "fresh"
    WRITERS[writer](fresh)
    expected = fresh.read_bytes()
    n = len(expected) + {"longer": 1000, "equal": 0, "shorter": -5}[old_size]
    old = tmp_path / "old"
    old.write_bytes(b"\xa5" * n)
    WRITERS[writer](old)
    assert old.read_bytes() == expected


@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_to_devnull(writer):
    # /dev/null cannot be cut, and never reads as longer than the data
    WRITERS[writer](os.devnull)


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_rewrite_propagates_and_leaves_an_empty_file(
        tmp_path, monkeypatch, writer):
    p = tmp_path / "old"
    p.write_bytes(b"\xa5" * 5000)

    def fail(fd):
        raise OSError("simulated failure")

    monkeypatch.setattr(os, "fstat", fail)
    with pytest.raises(OSError, match="simulated failure"):
        WRITERS[writer](p)
    monkeypatch.undo()
    assert p.read_bytes() == b""


def test_zero_area_mask_has_an_empty_band_and_no_region():
    t = RgbBoxThreshold(0, 255, 0, 255, 0, 255)
    for w, h in ((0, 5), (5, 0), (0, 0)):
        mask = segment_rgb(Frame(w, h, np.zeros((h, w), np.uint16)), t)
        assert len(mask.words) == 0
        top, band = mask.band()
        assert top == 0 and band.shape == (0, w)
        assert locate(mask, ScanParams(1)) is None


@pytest.mark.parametrize("w, h", [(-8, -4), (-1, 4), (4, -1)])
def test_mask_rejects_a_negative_size(w, h):
    with pytest.raises(ValueError,
                       match=rf"width {w} and height {h} must not be negative"):
        PackedBinaryMask(w, h, np.zeros(1, np.uint32))


# -- segmentation ------------------------------------------------------------

def test_segment_rgb_uniform_frame():
    frame = filled_frame(16, 8, 0xF800)
    pick = widen(0xF800)
    mask = segment_rgb(frame, threshold_from_pick(pick, "rgb"))
    assert mask.count() == 16 * 8


def test_segment_rgb_inclusive_bounds():
    t = RgbBoxThreshold(99, 99, 0, 255, 0, 255)
    word = None
    for w in range(0x10000):
        if widen(w)[0] == 99:
            word = w
            break
    frame = filled_frame(1, 1, word)
    assert segment_rgb(frame, t).count() == 1


def test_segment_rgb_vs_naive_oracle():
    rng = np.random.default_rng(5)
    t = RgbBoxThreshold(40, 200, 10, 220, 30, 240)
    for _ in range(10):
        frame = random_frame(rng)
        mask = segment_rgb(frame, t)
        assert np.array_equal(mask.to_bool(), naive_bits(frame, t))


def test_segment_chroma_vs_naive_oracle():
    rng = np.random.default_rng(6)
    t = ChromaThreshold(0.2, 0.6, 0.1, 0.5, i_min=30)
    for _ in range(10):
        frame = random_frame(rng)
        mask = segment_chroma(frame, t)
        assert np.array_equal(mask.to_bool(), naive_bits(frame, t))


def test_segment_chroma_uniform_pick():
    from colortrack.imaging import narrow
    word = narrow(200, 100, 100)
    frame = filled_frame(12, 12, word)
    t = threshold_from_pick(widen(word), "chroma")
    assert segment_chroma(frame, t).count() == 144


def test_segment_chroma_black_frame_empty():
    frame = filled_frame(16, 16, 0x0000)
    t = ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=30)
    assert segment_chroma(frame, t).count() == 0


def test_segment_chroma_half_scale_near_invariant():
    # pre-scale the nominal color in real arithmetic, then quantize; masks
    # may differ only on quantization-boundary pixels
    color = (230, 120, 30)
    from colortrack.imaging import narrow
    full = filled_frame(16, 16, narrow(*color))
    half = filled_frame(16, 16, narrow(*(c // 2 for c in color)))
    t = threshold_from_pick(widen(narrow(*color)), "chroma")
    a = segment_chroma(full, t).to_bool()
    b = segment_chroma(half, t).to_bool()
    assert (a != b).mean() <= 0.05


def test_segment_rgb_not_illumination_invariant():
    # a scale factor exists under which the RGB box loses the object while
    # chroma keeps it
    color = (230, 120, 30)
    from colortrack.imaging import narrow
    scale = 0.4
    dim = filled_frame(16, 16, narrow(*(int(scale * c) for c in color)))
    rgb_t = threshold_from_pick(widen(narrow(*color)), "rgb")
    chroma_t = threshold_from_pick(widen(narrow(*color)), "chroma")
    assert segment_rgb(dim, rgb_t).count() < 0.5 * 256
    assert segment_chroma(dim, chroma_t).count() >= 0.95 * 256


# -- exhaustive over every RGB565 word ---------------------------------------

# pixel (x, y) of this frame holds word 256*y + x: every word exactly once
ALL_WORDS = Frame(256, 256, np.arange(0x10000, dtype=np.uint16).reshape(256, 256))
WIDENED = [widen(w) for w in range(0x10000)]


# row w of this frame is all word w, 3 pixels wide: every word once as a
# row, which the row test decides by that word alone
ROW_WORDS = Frame(3, 0x10000, np.repeat(
    np.arange(0x10000, dtype=np.uint16)[:, None], 3, axis=1))


def assert_every_word_matches_oracle(threshold):
    segment = (segment_rgb if isinstance(threshold, RgbBoxThreshold)
               else segment_chroma)
    expected = [naive_verdict(r, g, b, threshold) for r, g, b in WIDENED]
    got = segment(ALL_WORDS, threshold).to_bool().reshape(-1)
    assert got.tolist() == expected
    rows = segment(ROW_WORDS, threshold).to_bool()
    assert np.array_equal(rows, np.repeat(np.array(expected)[:, None], 3, 1))


STOCK = Scenario()


@pytest.mark.parametrize("threshold", [
    replace(STOCK, mode="chroma").picked_threshold(),
    replace(STOCK, mode="rgb").picked_threshold(),
    replace(STOCK, mode="chroma", i_min=1).picked_threshold(),
    replace(STOCK, mode="chroma", chroma_margin=0.0).picked_threshold(),
    replace(STOCK, mode="rgb", rgb_margin=0).picked_threshold(),
    RgbBoxThreshold(0, 255, 0, 255, 0, 255),
    ChromaThreshold(0.0, 1.0, 0.0, 1.0),
    ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=1),
    ChromaThreshold(1 / 3, 1 / 3, 1 / 3, 1 / 3, i_min=1),
    # bounds a hair off exact ratios: only float64 division decides these
    ChromaThreshold(0.5 + 1e-12, 1.0, 0.0, 1.0, i_min=1),
    ChromaThreshold(0.0, 1.0, 0.0, 1 / 3 - 1e-12, i_min=1),
], ids=["stock-chroma", "stock-rgb", "chroma-i_min-1", "chroma-margin-0",
        "rgb-margin-0", "rgb-full", "chroma-full", "chroma-full-i_min-1",
        "chroma-one-third", "chroma-r-just-above-half",
        "chroma-g-just-below-third"])
def test_segmenters_match_oracle_on_every_word(threshold):
    assert_every_word_matches_oracle(threshold)


ROW_KINDS = ("clear", "set", "odd", "random")


@st.composite
def row_frames(draw):
    """A threshold and a frame whose rows are each of one ROW_KINDS kind:
    one word that is clear, one word that is set, one clear word but for
    one pixel of any word, or any words; and the rows to keep of it."""
    t = draw(st.sampled_from([STOCK.picked_threshold(),
                              replace(STOCK, mode="rgb").picked_threshold(),
                              RgbBoxThreshold(0, 255, 0, 255, 0, 255)]))
    table = seg._verdict_table(t)
    words = {True: np.flatnonzero(table), False: np.flatnonzero(~table)}
    width = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1,
                          max_size=3 * seg.ROW_BLOCK))
    word = st.integers(0, 0xFFFF)
    rows = []
    for kind in kinds:
        pool = words[kind == "set"]
        w = int(pool[draw(st.integers(0, len(pool) - 1))]) if len(pool) \
            else draw(word)  # no clear word when every word passes
        row = [w] * width
        if kind == "odd":
            row[draw(st.integers(0, width - 1))] = draw(word)
        elif kind == "random":
            row = draw(st.lists(word, min_size=width, max_size=width))
        rows.append(row)
    stop = draw(st.integers(0, len(rows)))
    return t, np.array(rows, dtype=np.uint16), stop


@given(row_frames())
@settings(max_examples=200, deadline=None)
def test_segment_matches_a_lookup_of_every_pixel(case):
    t, pixels, stop = case
    table = seg._verdict_table(t)
    for frame in (Frame(pixels.shape[1], len(pixels), pixels),
                  Frame(pixels.shape[1], stop, pixels[:stop])):  # a crop
        got = segment_rgb(frame, t)
        want = PackedBinaryMask.from_bool(np.take(table, frame.pixels))
        assert (got.width, got.height) == (want.width, want.height)
        assert np.array_equal(got.words, want.words)


@given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
       st.sampled_from(["rgb", "chroma"]), st.integers(0, 128),
       st.floats(0.0, 0.5), st.integers(1, 765))
@settings(max_examples=40, deadline=None)
def test_segmenters_match_oracle_on_every_word_property(pick, mode, rgb_margin,
                                                        chroma_margin, i_min):
    assume(mode == "rgb" or any(pick))  # a black pick has no chromaticity
    assert_every_word_matches_oracle(threshold_from_pick(
        pick, mode, rgb_margin=rgb_margin, chroma_margin=chroma_margin,
        i_min=i_min))


@given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
       st.sampled_from(["rgb", "chroma"]), st.integers(0, 128),
       st.floats(0.0, 0.5), st.integers(1, 765))
@settings(max_examples=40, deadline=None)
def test_verdict_table_is_kept_read_only(pick, mode, rgb_margin, chroma_margin,
                                         i_min):
    assume(mode == "rgb" or any(pick))
    t = threshold_from_pick(pick, mode, rgb_margin=rgb_margin,
                            chroma_margin=chroma_margin, i_min=i_min)
    table = seg._verdict_table(t)
    assert seg._verdict_table(t) is table
    assert np.array_equal(table, seg._verdict_table.__wrapped__(t))
    with pytest.raises(ValueError):
        table[0] = True


# chromaticity bounds: any fraction, or a widened channel value over a
# luminance, a ratio some word's r/I or g/I can equal exactly, so that a
# bound falls on a verdict's edge
bounds = st.one_of(
    st.floats(0.0, 1.0),
    st.builds(lambda n, d: n / d,
              st.sampled_from(sorted({c for w in WIDENED for c in w})),
              st.integers(1, 765)).filter(lambda v: v <= 1.0))


@st.composite
def thresholds(draw):
    if draw(st.booleans()):
        box = [sorted(draw(st.lists(st.integers(0, 255), min_size=2,
                                    max_size=2))) for _ in range(3)]
        return RgbBoxThreshold(*box[0], *box[1], *box[2])
    r_min, r_max = sorted([draw(bounds), draw(bounds)])
    g_min, g_max = sorted([draw(bounds), draw(bounds)])
    return ChromaThreshold(r_min, r_max, g_min, g_max,
                           draw(st.one_of(st.integers(1, 765),
                                          st.floats(1.0, 800.0))))


@given(thresholds())
@example(ChromaThreshold(1 / 3, 1 / 3, 1 / 3, 1 / 3, i_min=1))
@example(ChromaThreshold(0.0, 1 / 3, 1 / 3, 1.0, i_min=3))
@example(ChromaThreshold(0.5, 0.5, 0.25, 0.25, i_min=1))
@example(RgbBoxThreshold(0, 0, 0, 0, 0, 0))
# i_min half a step above a luminance some word has (28 and 761)
@example(ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=28.5))
@example(ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=761.5))
@example(ChromaThreshold(0.0, 1.0, 0.0, 1.0, i_min=float("inf")))
@settings(max_examples=40, deadline=None)
def test_verdict_table_matches_scalar_oracle(t):
    # the table and its uncached __wrapped__ build share one field grid;
    # this oracle shares nothing with it: a scalar verdict per word
    expected = [naive_verdict(r, g, b, t) for r, g, b in WIDENED]
    assert seg._verdict_table(t).tolist() == expected
