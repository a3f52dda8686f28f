import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colortrack import imaging
from colortrack.imaging import (Frame, Scene, Shape, decode, encode, narrow,
                                render, widen, widen_channels)
from colortrack.plant import CameraIntrinsics, CameraPose


def test_decode_examples():
    assert decode(0x0000) == (0, 0, 0)
    assert decode(0xFFFF) == (31, 63, 31)
    assert decode(0xF800) == (31, 0, 0)


def test_encode_examples():
    assert encode(31, 0, 0) == 0xF800
    assert encode(0, 63, 0) == 0x07E0


def test_encode_out_of_range():
    with pytest.raises(ValueError):
        encode(32, 0, 0)
    with pytest.raises(ValueError):
        encode(0, 64, 0)
    with pytest.raises(ValueError):
        encode(0, 0, -1)


def test_encode_decode_exhaustive():
    for w in range(0x10000):
        assert encode(*decode(w)) == w


def test_widen_examples():
    assert widen(0x0000) == (0, 0, 0)
    assert widen(0xFFFF) == (255, 255, 255)
    # replication formula evaluated by hand: r5=g6>>1=16, g6=32, b5=2... see
    # decode(0x8410) == (16, 32, 16)
    assert widen(0x8410) == (132, 130, 132)


def test_narrow_examples():
    assert narrow(255, 255, 255) == 0xFFFF
    assert narrow(7, 3, 7) == 0x0000


def test_narrow_widen_identity_exhaustive():
    for w in range(0x10000):
        assert narrow(*widen(w)) == w


@given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
def test_widen_narrow_idempotent(rgb):
    once = widen(narrow(*rgb))
    assert widen(narrow(*once)) == once


def test_vectorized_codec_matches_scalar():
    words = np.arange(0x10000, dtype=np.uint16)
    wide = imaging.widen_channels(words)
    sample = np.random.default_rng(0).integers(0, 0x10000, 200)
    for w in sample:
        assert tuple(wide[w]) == widen(int(w))
    assert np.array_equal(imaging.narrow_channels(wide), words)


def _narrow_oracle(rgb):
    """The RGB565 word of each pixel, by the integer formula."""
    r, g, b = (rgb[..., i].astype(np.int32) for i in range(3))
    return (r >> 3) << 11 | (g >> 2) << 5 | b >> 3


def _consecutive_colors(first, count):
    """RGB888 colours first .. first + count - 1, red in the top byte."""
    i = np.arange(first, first + count, dtype=np.uint32)
    return np.stack([i >> 16, (i >> 8) & 0xFF, i & 0xFF], -1).astype(np.uint8)


def test_narrow_channels_exhaustive():
    # every (r, g, b) triple, 2^20 at a time
    for first in range(0, 1 << 24, 1 << 20):
        rgb = _consecutive_colors(first, 1 << 20)
        words = imaging.narrow_channels(rgb)
        assert words.dtype == np.uint16
        assert np.array_equal(words, _narrow_oracle(rgb))


_PIXELS = np.random.default_rng(3).integers(0, 256, (6, 8, 3), np.uint8)


@pytest.mark.parametrize("rgb", [
    _PIXELS[:, ::2],
    np.asfortranarray(_PIXELS),
    _PIXELS.reshape(-1, 3),
    _PIXELS.reshape(2, 3, 8, 3),
    _PIXELS[2, 5],
    np.zeros((0, 3), np.uint8),
    np.zeros((0, 0, 3), np.uint8),
], ids=["strided", "fortran", "flat", "leading-axes", "one-pixel",
        "no-pixels", "no-rows"])
def test_narrow_channels_input_shapes(rgb):
    words = imaging.narrow_channels(rgb)
    assert words.dtype == np.uint16 and words.dtype.isnative
    assert words.shape == rgb.shape[:-1]
    assert np.array_equal(words, _narrow_oracle(rgb))


def test_frame_shape_validation():
    with pytest.raises(ValueError):
        Frame(4, 4, np.zeros((3, 4), np.uint16))


# -- rendering ---------------------------------------------------------------

INTR = CameraIntrinsics(width=320, height=240, ppd_x=8.0, ppd_y=8.0)
POSE = CameraPose()


def test_render_empty_scene_uniform_background():
    frame = render(Scene(background=(200, 100, 50)), POSE, INTR)
    assert np.all(frame.pixels == narrow(200, 100, 50))


def test_render_centered_disk():
    scene = Scene(shapes=[Shape("disk", 0.0, 0.0, 4.0, (255, 0, 0))])
    frame = render(scene, POSE, INTR)
    ys, xs = np.nonzero(frame.pixels == narrow(255, 0, 0))
    assert (xs.min() + xs.max()) // 2 == 160
    assert (ys.min() + ys.max()) // 2 == 120
    assert frame.pixels[120, 160] == narrow(255, 0, 0)


def test_render_overdraw_order():
    scene = Scene(shapes=[Shape("disk", 0.0, 0.0, 4.0, (255, 0, 0)),
                          Shape("disk", 0.0, 0.0, 4.0, (0, 0, 255))])
    frame = render(scene, POSE, INTR)
    assert frame.pixels[120, 160] == narrow(0, 0, 255)


def test_render_deterministic():
    scene = Scene(shapes=[Shape("triangle", 3.0, -2.0, 5.0, (10, 200, 90))],
                  illumination=0.7)
    a = render(scene, POSE, INTR)
    b = render(scene, POSE, INTR)
    assert np.array_equal(a.pixels, b.pixels)


def test_render_half_illumination_vs_per_pixel_oracle():
    color = (237, 121, 63)
    full = render(Scene(shapes=[Shape("disk", 0.0, 0.0, 4.0, color)],
                        illumination=1.0), POSE, INTR)
    half = render(Scene(shapes=[Shape("disk", 0.0, 0.0, 4.0, color)],
                        illumination=0.5), POSE, INTR)
    obj = full.pixels == narrow(*color)
    expected = narrow(*(c // 2 for c in color))
    assert np.all(half.pixels[obj] == expected)
    # halving then widening stays within one quantization count of half the
    # widened full-illumination channels
    wide_full = np.array(widen(narrow(*color)), dtype=float)
    wide_half = np.array(widen(expected), dtype=float)
    assert np.all(np.abs(wide_half - wide_full / 2) <= 8)


@pytest.mark.parametrize("kind", ["disk", "rectangle", "triangle"])
def test_render_illumination_monotone(kind):
    scene = lambda s: Scene(background=(40, 60, 80),
                            shapes=[Shape(kind, 1.0, -1.0, 6.0, (250, 130, 40))],
                            illumination=s)
    prev = None
    for s in (0.2, 0.4, 0.6, 0.8, 1.0):
        wide = widen_channels(render(scene(s), POSE, INTR).pixels)
        wide = wide.astype(int)
        if prev is not None:
            assert np.all(prev <= wide)
        prev = wide


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape("hexagon", 0, 0, 1.0, (0, 0, 0))
    with pytest.raises(ValueError):
        Shape("disk", 0, 0, 0.0, (0, 0, 0))
    for bad in (math.inf, -math.inf, math.nan):
        for az, el, size in ((bad, 0.0, 1.0), (0.0, bad, 1.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                Shape("disk", az, el, size, (0, 0, 0))
    with pytest.raises(ValueError):
        Scene(illumination=1.5)


def full_frame_render(scene, pose, intrinsics):
    """Reference render: every shape's coverage tested over the whole frame."""
    w, h = intrinsics.width, intrinsics.height
    pixels = np.full((h, w), narrow(*imaging._lit(scene.background,
                                                  scene.illumination)),
                     dtype=np.uint16)
    ys, xs = np.mgrid[0:h, 0:w]
    for shape in scene.shapes:
        cx = w / 2 + (shape.az - pose.pan) * intrinsics.ppd_x
        cy = h / 2 + (shape.el - pose.tilt) * intrinsics.ppd_y
        rx = shape.size / 2 * intrinsics.ppd_x
        ry = shape.size / 2 * intrinsics.ppd_y
        if shape.kind == "disk":
            covered = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        elif shape.kind == "rectangle":
            covered = (np.abs(xs - cx) <= rx) & (np.abs(ys - cy) <= ry)
        else:
            u = (ys - (cy - ry)) / (2 * ry)
            covered = (u >= 0) & (u <= 1) & (np.abs(xs - cx) <= rx * u)
        pixels[covered] = narrow(*imaging._lit(shape.color, scene.illumination))
    return Frame(w, h, pixels)


# Angles in view, off-frame, far enough off that `pixel - centre` rounds,
# and large enough that the centre or radius overflows to infinity.
ANGLES = st.one_of(st.floats(-30, 30), st.floats(-1e12, 1e12),
                   st.sampled_from([1e17, -3e16 - 0.5, 1e308, -1e308]))
SIZES = st.one_of(st.floats(1e-6, 0.3), st.floats(0.3, 15),
                  st.sampled_from([2e17, 1e308, 5e-324]))
SHAPES = st.builds(Shape, st.sampled_from(["disk", "rectangle", "triangle"]),
                   ANGLES, ANGLES, SIZES,
                   st.tuples(*[st.integers(0, 255)] * 3))


@given(st.lists(SHAPES, min_size=1, max_size=3),
       st.builds(CameraPose, st.one_of(st.floats(-20, 20), st.just(-1e308)),
                 st.floats(-20, 20)),
       st.builds(CameraIntrinsics, st.integers(1, 48), st.integers(1, 48),
                 st.sampled_from([0.5, 3.7, 8.0, 16.0]),
                 st.sampled_from([1.0, 8.0])),
       st.sampled_from([1.0, 0.6]))
@settings(max_examples=300, deadline=None)
# A centre 1e17 px off, whose disk or rectangle edge is in view: there
# `pixel - centre` rounds by several pixels.
@example([Shape("disk", 1e17, 0.0, 2e17, (255, 0, 0))], CameraPose(),
         CameraIntrinsics(50, 30, 1.0, 1.0), 1.0)
@example([Shape("rectangle", -1e17, 0.0, 2e17, (255, 0, 0))], CameraPose(),
         CameraIntrinsics(48, 30, 1.0, 1.0), 1.0)
# An overflowed centre, and an overflowed radius.
@example([Shape(kind, 1e308, 0.0, 4.0, (255, 0, 0))
          for kind in ("disk", "rectangle", "triangle")],
         CameraPose(-1e308, 0.0), CameraIntrinsics(20, 10, 8.0, 8.0), 1.0)
@example([Shape(kind, 0.0, 0.0, 1e308, (255, 0, 0))
          for kind in ("disk", "rectangle", "triangle")],
         CameraPose(), CameraIntrinsics(20, 10, 8.0, 8.0), 1.0)
def test_render_matches_full_frame_render(shapes, pose, intr, illumination):
    scene = Scene((12, 34, 56), tuple(shapes), illumination)
    with np.errstate(all="ignore"):  # inf - inf in overflowed poses
        got = render(scene, pose, intr)
        expected = full_frame_render(scene, pose, intr)
    assert np.array_equal(got.pixels, expected.pixels)


@pytest.mark.parametrize("kind, az, size, pan, covered", [
    ("disk", 1e308, 4.0, -1e308, 0),  # the centre overflows to +inf
    ("rectangle", 1e308, 4.0, -1e308, 0),
    ("triangle", 1e308, 4.0, -1e308, 0),
    ("disk", 0.0, 1e308, 0.0, 200),  # the radius overflows to +inf
    ("rectangle", 0.0, 1e308, 0.0, 200),
    ("triangle", 0.0, 1e308, 0.0, 0),
])
def test_render_overflowed_shape(kind, az, size, pan, covered):
    scene = Scene((0, 0, 0), (Shape(kind, az, 0.0, size, (255, 0, 0)),))
    with np.errstate(all="ignore"):
        frame = render(scene, CameraPose(pan, 0.0),
                       CameraIntrinsics(20, 10, 8.0, 8.0))
    assert np.count_nonzero(frame.pixels) == covered


# -- file I/O ----------------------------------------------------------------

def test_ppm_single_white_pixel(tmp_path):
    p = tmp_path / "white.ppm"
    p.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
    frame = imaging.read_ppm(p)
    assert frame.width == frame.height == 1
    assert frame.pixels[0, 0] == 0xFFFF


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    frame = Frame(13, 9, rng.integers(0, 0x10000, (9, 13)).astype(np.uint16))
    p = tmp_path / "f.ppm"
    imaging.write_ppm(frame, p)
    back = imaging.read_ppm(p)
    assert np.array_equal(back.pixels, frame.pixels)


def test_ppm_header_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + b"\x00" * 6)
    frame = imaging.read_ppm(p)
    assert frame.width == 2 and frame.height == 1


def test_ppm_million_colors(tmp_path):
    rgb = _consecutive_colors(0x5A5A5A, 1 << 20).reshape(1024, 1024, 3)
    p = tmp_path / "colors.ppm"
    p.write_bytes(b"P6\n1024 1024\n255\n" + rgb.tobytes())
    assert np.array_equal(imaging.read_ppm(p).pixels, _narrow_oracle(rgb))


@pytest.mark.parametrize("width", [1, 3, 7, 641])
def test_ppm_odd_widths_after_a_comment(tmp_path, width):
    rgb = np.random.default_rng(width).integers(0, 256, (5, width, 3),
                                                np.uint8)
    p = tmp_path / "odd.ppm"
    p.write_bytes(b"P6\n# odd width\n%d 5\n255\n" % width + rgb.tobytes())
    frame = imaging.read_ppm(p)
    assert (frame.width, frame.height) == (width, 5)
    assert np.array_equal(frame.pixels, _narrow_oracle(rgb))


def test_ppm_truncated(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n2 2\n255\n\xff\xff")
    with pytest.raises(ValueError, match="truncated"):
        imaging.read_ppm(p)


def test_ppm_bad_magic(tmp_path):
    p = tmp_path / "b.ppm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="P6"):
        imaging.read_ppm(p)


def test_ppm_bad_maxval(tmp_path):
    p = tmp_path / "m.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        imaging.read_ppm(p)


@pytest.mark.parametrize("header, match", [
    (b" P6\n2 1\n255\n", "malformed PPM header"),
    (b"P6\n2 +1\n255\n", "malformed PPM header"),
    (b"P6\n-2 1\n255\n", "malformed PPM header"),
    (b"P6\n2 1\n2#c\n55\n", "malformed PPM header"),
    (b"P6\n2 1\n255#c\n", "malformed PPM header"),
    (b"P6\n" + b"1" * 5000 + b" 1\n255\n", "malformed PPM header"),
    (b"P6#c\n2 1\n255\n", None),
    (b"P6\n2#c\r1\n255\n", None),
    (b"P6\t2 \r\n 1\v255\f", None),
], ids=["leading-space", "sign", "negative", "comment-in-number",
        "comment-after-maxval", "5000-digits", "comment-after-magic",
        "comment-ends-at-cr", "every-whitespace"])
def test_ppm_header_grammar(tmp_path, header, match):
    p = tmp_path / "h.ppm"
    p.write_bytes(header + bytes(range(6)))
    if match is None:
        frame = imaging.read_ppm(p)
        assert (frame.width, frame.height) == (2, 1)
        assert frame.pixels.tolist() == [[narrow(0, 1, 2), narrow(3, 4, 5)]]
    else:
        with pytest.raises(ValueError, match=match):
            imaging.read_ppm(p)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    # module-scoped, so hypothesis examples may share it: each rewrites it
    return tmp_path_factory.mktemp("malformed") / "input"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=64).map(lambda b: b"P6" + b),
                 st.lists(st.sampled_from([b"P6", b" ", b"\n", b"\r", b"#",
                                           b"x", b"-", b"0", b"1", b"3",
                                           b"255", b"\xff"]),
                          max_size=16).map(b"".join)))
def test_ppm_arbitrary_bytes_raise_only_value_error(input_file, data):
    input_file.write_bytes(data)
    try:
        frame = imaging.read_ppm(input_file)
    except ValueError:
        return
    assert frame.pixels.shape == (frame.height, frame.width)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(-3, 40), height=st.integers(-3, 40),
       extra=st.integers(-40, 40), seed=st.integers(0, 2**32 - 1))
def test_ppm_payload_shorter_or_longer_than_header(input_file, width, height,
                                                   extra, seed):
    need = max(width, 0) * max(height, 0) * 3
    payload = np.random.default_rng(seed).integers(
        0, 256, max(need + extra, 0), dtype=np.uint8).tobytes()
    input_file.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + payload)
    if width < 0 or height < 0:
        match = "malformed PPM header"
    elif width == 0 or height == 0:
        match = "bad PPM dimensions"
    elif len(payload) < need:
        match = "truncated PPM payload"
    else:
        frame = imaging.read_ppm(input_file)
        rgb = np.frombuffer(payload[:need], np.uint8).reshape(height, width, 3)
        assert np.array_equal(frame.pixels, imaging.narrow_channels(rgb))
        return
    with pytest.raises(ValueError, match=match):
        imaging.read_ppm(input_file)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200), width=st.integers(1, 64),
       height=st.integers(1, 64))
def test_rgb565_arbitrary_bytes_raise_only_value_error(input_file, data, width,
                                                       height):
    input_file.write_bytes(data)
    try:
        frame = imaging.read_rgb565(input_file, width, height)
    except ValueError:
        assert len(data) != width * height * 2
        return
    assert frame.pixels.tobytes() == data


@pytest.mark.parametrize("header, match", [
    (b"P6\n4000 4000\n255\n", "truncated PPM payload"),
    (b"P6 4000 4000 255", "malformed PPM header"),
], ids=["header-only", "no-raster-delimiter"])
def test_ppm_claimed_size_is_checked_before_allocating(tmp_path, header,
                                                       match):
    import tracemalloc
    p = tmp_path / "huge.ppm"
    p.write_bytes(header)  # claims a 48 MB raster
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            imaging.read_ppm(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rgb565_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    frame = Frame(8, 5, rng.integers(0, 0x10000, (5, 8)).astype(np.uint16))
    p = tmp_path / "f.rgb565"
    imaging.write_rgb565(frame, p)
    assert p.stat().st_size == 8 * 5 * 2
    back = imaging.read_rgb565(p, 8, 5)
    assert np.array_equal(back.pixels, frame.pixels)


def test_rgb565_little_endian(tmp_path):
    frame = Frame(1, 1, np.array([[0xF800]], np.uint16))
    p = tmp_path / "one.rgb565"
    imaging.write_rgb565(frame, p)
    assert p.read_bytes() == b"\x00\xf8"


def test_rgb565_size_mismatch(tmp_path):
    p = tmp_path / "bad.rgb565"
    p.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="expected"):
        imaging.read_rgb565(p, 2, 2)


@pytest.mark.parametrize("payload, width, height", [
    (b"", 0, 0),
    (b"\x00" * 12, -2, -3),
    (b"", 4, 0),
    (b"", 0, 4),
], ids=["0x0", "-2x-3", "4x0", "0x4"])
def test_rgb565_bad_dimensions(tmp_path, payload, width, height):
    p = tmp_path / "bad.rgb565"
    p.write_bytes(payload)
    with pytest.raises(ValueError, match="bad raw dimensions"):
        imaging.read_rgb565(p, width, height)
