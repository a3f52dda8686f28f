import io
import math
import re
from array import array
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colortrack import config as cfgmod
from colortrack import harness, segmentation
from colortrack.control import PlantModel
from colortrack.harness import (ObjectMotion, Scenario, TrajectoryRecord,
                                TrajectoryRow, circle_stats, default_band,
                                run_illumination_sweep, run_scenario,
                                settling_time)
from colortrack.imaging import SHAPE_KINDS, Scene, render
from colortrack.plant import CameraIntrinsics, CameraPose
from colortrack.region import ScanParams, locate
from colortrack.segmentation import THRESHOLD_MODES
from oracles import CORNER_START, record_of, retention


def synthetic_record(ts, exs, eys=None):
    eys = eys if eys is not None else [0.0] * len(exs)
    return record_of(TrajectoryRow(t, ex, ey, 0, 0, 0, 0, 160, 120, True)
                     for t, ex, ey in zip(ts, exs, eys))


def test_motion_validation():
    with pytest.raises(ValueError):
        ObjectMotion(kind="spiral")
    with pytest.raises(ValueError):
        ObjectMotion(kind="circular", period=0.0)
    for name in ("az", "el", "radius", "phase"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ObjectMotion(**{name: bad})


def test_motion_trajectories():
    fixed = ObjectMotion(az=2.0, el=-1.0)
    assert fixed.at(3.7) == (2.0, -1.0)
    circ = ObjectMotion(kind="circular", radius=5.0, period=2.0)
    az0, el0 = circ.at(0.0)
    az1, el1 = circ.at(1.0)  # half a revolution
    assert (az0, el0) == pytest.approx((5.0, 0.0))
    assert (az1, el1) == pytest.approx((-5.0, 0.0), abs=1e-9)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(kind="flight")
    with pytest.raises(ValueError, match="period"):
        ObjectMotion(kind="circular", period=math.nan)
    with pytest.raises(ValueError):
        Scenario(duration=0.0)
    for name in ("duration", "sample_time", "object_size"):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                Scenario(**{name: bad})
    bad_colors = ((300, 0, 0), (0, -1, 0), (0, math.nan, 0), (1, 2),
                  (1, 2, 3, 4), ("1", 2, 3), 5)
    for name, bads in (("illumination", (-0.1, 1.5, math.nan)),
                       ("rgb_margin", (-1,)),
                       ("chroma_margin", (-0.1, math.nan)),
                       ("i_min", (0, -1)),
                       ("min_width", (0, -3)),
                       ("u_min", (0.5, math.nan)),
                       ("u_max", (-0.5, math.nan)),
                       ("object_kind", ("star",)),
                       ("mode", ("foo",)),
                       ("background", bad_colors),
                       ("object_color", bad_colors)):
        for bad in bads:
            with pytest.raises(ValueError, match=name):
                Scenario(**{name: bad})
    assert Scenario(illumination=0.0, rgb_margin=0, chroma_margin=0.0)
    with pytest.raises(ValueError, match="u_min must be < u_max"):
        Scenario(u_min=0.0, u_max=0.0)
    assert Scenario(u_min=-math.inf, u_max=0.0)
    # a scenario that would run no frame
    with pytest.raises(ValueError, match="duration"):
        Scenario(sample_time=10.0, duration=1.0)
    assert Scenario(sample_time=10.0, duration=6.0).n_frames == 1


def test_scenario_float_color_channels_are_truncated():
    exact = Scenario(background=(10, 20, 255), object_color=(230, 120, 30))
    floats = Scenario(background=(10.5, 20.99, 255.0),
                      object_color=(230.9, 120.5, np.float64(30.2)))
    frames = [render(s.scene_at(0.0), CameraPose(), s.intrinsics).pixels
              for s in (exact, floats)]
    assert np.array_equal(*frames)
    assert floats.picked_threshold() == exact.picked_threshold()


# -- settling time -----------------------------------------------------------

def test_settling_all_zero():
    rec = synthetic_record([0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
    assert settling_time(rec, band=3.0) == 0.0


def test_settling_never():
    rec = synthetic_record([0.0, 0.1, 0.2], [50.0, 50.0, 50.0])
    assert settling_time(rec, band=3.0) is None


def test_settling_band_positive():
    for band in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="band must be > 0"):
            settling_time(synthetic_record([0.0], [0.0]), band=band)


def test_settling_exponential_analytic():
    # e(t) = 160*exp(-2.5 t) crosses the 2% band (3.2 px) at ln(0.02)/-2.5
    ts = np.arange(0, 3, 0.01)
    rec = synthetic_record(ts, 160.0 * np.exp(-2.5 * ts))
    t_settle = settling_time(rec, band=0.02 * 160)
    assert t_settle == pytest.approx(math.log(0.02) / -2.5, abs=0.02)


def test_default_band_floor():
    rec = synthetic_record([0.0], [50.0])
    assert default_band(rec) == 3.0  # 2% of 50 px is below the 3 px floor
    rec = synthetic_record([0.0], [300.0])
    assert default_band(rec) == pytest.approx(6.0)


def test_settling_lost_frames_count_as_outside():
    rec = record_of(
        [TrajectoryRow(0.0, 0.0, 0.0, 0, 0, 0, 0, 160, 120, True),
         TrajectoryRow(0.1, math.nan, math.nan, 0, 0, 0, 0, -1, -1, False),
         TrajectoryRow(0.2, 0.0, 0.0, 0, 0, 0, 0, 160, 120, True)])
    assert settling_time(rec, band=3.0) == pytest.approx(0.2)


# -- circle statistics -------------------------------------------------------

def test_circle_stats_exact_circle():
    angles = np.linspace(0, 2 * math.pi, 36, endpoint=False)
    pts = [(87.57 * math.cos(a), 87.57 * math.sin(a)) for a in angles]
    mean_r, std_r = circle_stats(pts)
    assert mean_r == pytest.approx(87.57, rel=1e-9)
    assert std_r == pytest.approx(0.0, abs=1e-9)


def test_circle_stats_degenerate():
    mean_r, std_r = circle_stats([(3.0, 4.0)] * 5)
    assert (mean_r, std_r) == (0.0, 0.0)


def test_circle_stats_requires_three_points():
    with pytest.raises(ValueError):
        circle_stats([(0, 0), (1, 1)])


def test_circle_stats_noisy_circle():
    rng = np.random.default_rng(123)
    angles = rng.uniform(0, 2 * math.pi, 500)
    radii = 87.57 + rng.uniform(-5, 5, 500)
    pts = list(zip(radii * np.cos(angles), radii * np.sin(angles)))
    _, std_r = circle_stats(pts)
    assert 2.0 <= std_r <= 4.0  # uniform +-5 noise: sigma = 5/sqrt(3) = 2.89


# -- scenarios ---------------------------------------------------------------

def test_equilibrium_scenario():
    s = Scenario(kind="step_track", duration=2.0,
                 motion=ObjectMotion(az=0.0, el=0.0))
    rec, metrics = run_scenario(s)
    assert metrics.lost_frames == 0
    for r in rec:
        assert abs(r.ex) <= 1 and abs(r.ey) <= 1
    assert abs(rec[-1].ux - rec[-2].ux) < 1e-6


def test_step_track_settles():
    s = Scenario(kind="step_track", duration=5.0,
                 motion=CORNER_START)
    rec, metrics = run_scenario(s)
    assert metrics.lost_frames == 0
    assert metrics.settling_time is not None
    assert metrics.settling_time == pytest.approx(1.6, rel=0.25)
    assert abs(rec[-1].ex) <= 3 and abs(rec[-1].ey) <= 3


def test_clock_scenario_radius():
    rec, metrics = run_scenario(harness.CLOCK_SCENARIO)
    # tracking is off: the camera never moves and no command is issued
    assert all(r.pan == 0.0 and r.tilt == 0.0 and r.ux == 0.0 for r in rec)
    assert metrics.mean_radius == pytest.approx(87.57, abs=2.0)
    assert metrics.radius_std < 4.0


def assert_lost_rows_hold_command(rec, metrics):
    """Each lost row has no centre, NaN errors and the previous command."""
    command = (0.0, 0.0)  # before the first frame
    for r in rec:
        if not r.found:
            assert (r.cx, r.cy) == (-1, -1)
            assert math.isnan(r.ex) and math.isnan(r.ey)
            assert (r.ux, r.uy) == command
        command = (r.ux, r.uy)
    assert metrics.lost_frames == sum(not r.found for r in rec)


# A circle too wide for the camera to follow: the object is found, then lost
# while tracking is on.
LOST_TARGET = Scenario(kind="step_track", duration=3.0,
                       motion=ObjectMotion(kind="circular", radius=18.0,
                                           period=1.5))


def test_lost_object_holds_command():
    never = Scenario(kind="step_track", duration=1.0,
                     motion=ObjectMotion(az=25.0, el=0.0))  # outside the FOV
    rec, metrics = run_scenario(never)
    assert_lost_rows_hold_command(rec, metrics)
    assert metrics.lost_frames == len(rec)

    rec, metrics = run_scenario(LOST_TARGET)
    assert_lost_rows_hold_command(rec, metrics)
    rows = list(rec)
    assert any(a.found and not b.found for a, b in zip(rows, rows[1:]))


@st.composite
def short_scenarios(draw):
    """Tracking runs of at most 0.5 s on a still object inside the view."""
    intr = CameraIntrinsics()
    half_az = intr.width / 2 / intr.ppd_x
    half_el = intr.height / 2 / intr.ppd_y
    u_max = draw(st.floats(0.5, 60.0))
    return Scenario(
        kind="step_track", duration=draw(st.floats(0.1, 0.5)),
        motion=ObjectMotion(az=draw(st.floats(-half_az, half_az)),
                            el=draw(st.floats(-half_el, half_el))),
        object_kind=draw(st.sampled_from(SHAPE_KINDS)),
        object_size=draw(st.floats(0.5, 12.0)),
        mode=draw(st.sampled_from(THRESHOLD_MODES)),
        illumination=draw(st.floats(0.3, 1.0)),
        min_width=draw(st.integers(1, 6)),
        u_min=-u_max, u_max=u_max)


@given(short_scenarios())
@example(LOST_TARGET)
@settings(deadline=None)
def test_closed_loop_invariants(s):
    try:
        rec, metrics = run_scenario(s)
    except ValueError:
        return
    intr = s.intrinsics
    for r in rec:
        assert s.u_min <= r.ux <= s.u_max and s.u_min <= r.uy <= s.u_max
        if r.found:
            assert 0 <= r.cx < intr.width and 0 <= r.cy < intr.height
    assert_lost_rows_hold_command(rec, metrics)


HALF_AZ = CameraIntrinsics().width / 2 / CameraIntrinsics().ppd_x
HALF_EL = CameraIntrinsics().height / 2 / CameraIntrinsics().ppd_y


def lone_object(az, el, kind="disk", size=4.0, mode="chroma"):
    """One frame of a still object, the only thing the threshold passes."""
    return Scenario(kind="step_track", duration=harness.DEFAULT_SAMPLE_TIME,
                    motion=ObjectMotion(az=az, el=el), object_kind=kind,
                    object_size=size, mode=mode)


@st.composite
def lone_objects(draw):
    """Inside the view, clipped at an edge, or out of view."""
    size = draw(st.floats(0.5, 12.0))
    return lone_object(draw(st.floats(-HALF_AZ - size, HALF_AZ + size)),
                       draw(st.floats(-HALF_EL - size, HALF_EL + size)),
                       draw(st.sampled_from(SHAPE_KINDS)), size,
                       draw(st.sampled_from(THRESHOLD_MODES)))


@given(lone_objects())
@example(lone_object(HALF_AZ, 0.0))  # centred on each edge
@example(lone_object(-HALF_AZ, 0.0, "triangle"))
@example(lone_object(0.0, HALF_EL, "rectangle", mode="rgb"))
@example(lone_object(0.0, -HALF_EL, "triangle"))
@example(lone_object(HALF_AZ, HALF_EL, "rectangle", 12.0))  # a corner
@example(lone_object(HALF_AZ + 2.5, 0.0, size=4.0))  # just out of view
@example(lone_object(0.0, -HALF_EL - 6.5, "triangle", 12.0))
@settings(deadline=None)
def test_found_box_is_the_rendered_objects_box(s):
    # when only the object passes the threshold, the region found is the
    # box of the object's own pixels, which it renders alone to show; a
    # convex shape has one run per row and is one component, so it is found
    # exactly when its widest row is at least min_width wide
    pose, intr = CameraPose(), s.intrinsics
    shape = s.scene_at(0.0).shapes[0]
    solo = render(Scene((0, 0, 0), (replace(shape, color=(255, 255, 255)),)),
                  pose, intr).pixels != 0
    mask = segmentation.segment_rgb(render(s.scene_at(0.0), pose, intr),
                                    s.picked_threshold())
    assert np.array_equal(mask.to_bool(), solo)
    reg = locate(mask, ScanParams(s.min_width))
    row = run_scenario(s)[0][0]
    if not solo.sum(axis=1).max() >= s.min_width:
        assert reg is None and not row.found
        return
    ys, xs = np.nonzero(solo)
    assert (reg.top, reg.bottom, reg.left, reg.right) == \
        (ys.min(), ys.max(), xs.min(), xs.max())
    assert row.found and (row.cx, row.cy) == (reg.center_x, reg.center_y)


def pair(draw, values):
    """Two different values, one for each axis."""
    return draw(st.lists(values, min_size=2, max_size=2, unique=True))


@st.composite
def asymmetric_scenarios(draw):
    """Short tracking runs whose two axes differ in every input they read.

    The shape is a disk or a rectangle, which are symmetric about both axes
    (a triangle's apex is not), and min_width is 1, because the scan reads
    rows.
    """
    width, height = pair(draw, st.integers(16, 96))
    ppd_x, ppd_y = pair(draw, st.floats(2.0, 12.0))
    k = pair(draw, st.floats(0.2, 3.0))
    tau = pair(draw, st.floats(0.2, 1.0))  # the stock spec needs ts <= 8*tau
    size = draw(st.floats(1.0, 6.0))
    half_az, half_el = width / 2 / ppd_x + size, height / 2 / ppd_y + size
    return Scenario(
        kind="step_track", duration=draw(st.floats(0.2, 0.5)),
        intrinsics=CameraIntrinsics(width, height, ppd_x, ppd_y),
        pan_model=PlantModel(k[0], tau[0]),
        tilt_model=PlantModel(k[1], tau[1]),
        motion=ObjectMotion(az=draw(st.floats(-half_az, half_az)),
                            el=draw(st.floats(-half_el, half_el))),
        object_kind=draw(st.sampled_from(("disk", "rectangle"))),
        object_size=size, min_width=1)


def transposed(s):
    """The scenario with its x and y swapped: frame, optics, axes, object."""
    intr = s.intrinsics
    return replace(s, intrinsics=CameraIntrinsics(intr.height, intr.width,
                                                  intr.ppd_y, intr.ppd_x),
                   pan_model=s.tilt_model, tilt_model=s.pan_model,
                   motion=replace(s.motion, az=s.motion.el, el=s.motion.az))


@given(asymmetric_scenarios())
@settings(max_examples=60, deadline=None)
def test_transposed_scenario_gives_the_mirrored_trajectory(s):
    # each axis is wired to its own model, pixels-per-degree and error, so
    # swapping x and y in the inputs swaps them in every row
    mirrored = record_of(
        TrajectoryRow(r.t, r.ey, r.ex, r.uy, r.ux, r.tilt, r.pan, r.cy, r.cx,
                      r.found) for r in run_scenario(s)[0])
    assert repr(run_scenario(transposed(s))[0]) == repr(mirrored)


def test_commands_never_exceed_saturation():
    s = Scenario(kind="step_track", duration=4.0, u_min=-10.0, u_max=10.0,
                 motion=CORNER_START)
    rec, _ = run_scenario(s)
    assert all(s.u_min <= r.ux <= s.u_max for r in rec)
    assert all(s.u_min <= r.uy <= s.u_max for r in rec)


def test_scenario_deterministic():
    s = Scenario(kind="step_track", duration=2.0,
                 motion=ObjectMotion(az=12.0, el=-8.0))
    rec1, m1 = run_scenario(s)
    rec2, m2 = run_scenario(s)
    assert repr(rec1) == repr(rec2)
    assert m1 == m2


def assert_rows_are_whole_frame_results(s, rec):
    """Each row's found flag and centre are locate's on the whole frame,
    rendered again at the row's recorded time and pose."""
    threshold, params = s.picked_threshold(), ScanParams(s.min_width)
    for r in rec:
        frame = render(s.scene_at(r.t), CameraPose(r.pan, r.tilt),
                       s.intrinsics)
        reg = locate(segmentation.segment_rgb(frame, threshold), params)
        assert (r.found, r.cx, r.cy) == ((False, -1, -1) if reg is None else
                                         (True, reg.center_x, reg.center_y))


# A 4 deg object on a 10 deg circle every 0.8 s, tracking off: on its way
# down it moves up to 7.2 deg a frame, more than half its height, so the
# crop below the last region misses it or cuts it off.
FALLING = Scenario(kind="clock_motion", duration=1.0, object_size=4.0,
                   motion=ObjectMotion(kind="circular", radius=10.0,
                                       period=0.8))


@st.composite
def circling_scenarios(draw):
    """Short runs of either kind on small frames; the object circles slowly
    or fast, inside the view or through its edges."""
    width, height = draw(st.integers(16, 96)), draw(st.integers(16, 96))
    ppd_x, ppd_y = draw(st.floats(2.0, 12.0)), draw(st.floats(2.0, 12.0))
    size = draw(st.floats(1.0, 8.0))
    half_az, half_el = width / 2 / ppd_x, height / 2 / ppd_y
    return Scenario(
        kind=draw(st.sampled_from(harness.SCENARIO_KINDS)),
        duration=draw(st.floats(0.2, 1.0)),
        intrinsics=CameraIntrinsics(width, height, ppd_x, ppd_y),
        motion=ObjectMotion(kind="circular",
                            az=draw(st.floats(-half_az, half_az)),
                            el=draw(st.floats(-half_el, half_el)),
                            radius=draw(st.floats(0.0, 12.0)),
                            period=draw(st.floats(0.3, 4.0)),
                            phase=draw(st.floats(0.0, 360.0))),
        object_kind=draw(st.sampled_from(SHAPE_KINDS)), object_size=size,
        mode=draw(st.sampled_from(THRESHOLD_MODES)),
        min_width=draw(st.integers(1, 4)))


@given(circling_scenarios())
@example(FALLING)
@settings(max_examples=60, deadline=None)
def test_rows_are_whole_frame_results(s):
    # the loop segments only down to just below the last region; the rows
    # must still be what the whole frame gives
    assert_rows_are_whole_frame_results(s, run_scenario(s)[0])


def test_falling_object_takes_every_crop_outcome(monkeypatch):
    # FALLING's cropped frames keep their region, find nothing, or cut the
    # object off at the crop's last row, where the whole frame, segmented
    # next, gives another region
    calls = []  # (rows segmented, region) of each locate call

    def recording(mask, params, locate=harness.locate):
        calls.append((mask.height, locate(mask, params)))
        return calls[-1][1]
    monkeypatch.setattr(harness, "locate", recording)
    rec, _ = run_scenario(FALLING)
    outcomes = set()
    for (rows, reg), (_, whole) in zip(calls, calls[1:]):
        if rows < FALLING.intrinsics.height:
            outcomes.add("none" if reg is None else
                         "kept" if reg.bottom < rows - 1 else
                         "cut" if whole != reg else "touched")
    assert {"none", "kept", "cut"} <= outcomes
    assert_rows_are_whole_frame_results(FALLING, rec)


@pytest.mark.parametrize("mode", ["chroma", "rgb"])
def test_scenario_segments_through_harness_names(monkeypatch, mode):
    # the benchmark traces segmentation by patching these names in harness,
    # so every frame must call the segmenter through one of them
    calls = {"segment_chroma": 0, "segment_rgb": 0}
    for name in calls:
        def counting(frame, t, name=name, segment=getattr(harness, name)):
            calls[name] += 1
            return segment(frame, t)
        monkeypatch.setattr(harness, name, counting)
    s = Scenario(duration=3 * harness.DEFAULT_SAMPLE_TIME, mode=mode)
    rec, _ = run_scenario(s)
    assert len(rec) == 3
    assert sum(calls.values()) == 3


def test_trajectory_row_pickle_and_copy():
    import copy
    import pickle
    row = TrajectoryRow(0.1, 2.0, -3.0, 0.5, 0.25, 1.0, -1.0, 160, 120, True)
    assert pickle.loads(pickle.dumps(row)) == row
    assert copy.copy(row) == row and copy.deepcopy(row) == row
    assert not hasattr(row, "__dict__")


def test_infeasible_spec_propagates():
    from colortrack.control import LoopSpec, PlantModel
    with pytest.raises(ValueError, match="infeasible"):
        Scenario(kind="step_track", pan_model=PlantModel(1.0, 0.1),
                 spec=LoopSpec(ts=1.6, po=5.0))


def test_illumination_sweep_retention():
    result = run_illumination_sweep(Scenario())
    chroma = retention(result, "chroma")
    rgb = retention(result, "rgb")
    assert all(f >= 0.95 for f in chroma)
    assert rgb[-1] < 0.5


def test_illumination_sweep_refuses_no_levels():
    with pytest.raises(ValueError, match="levels"):
        run_illumination_sweep(Scenario(), ())


# -- persistence -------------------------------------------------------------

def test_csv_empty_record(tmp_path):
    p = tmp_path / "empty.csv"
    harness.write_csv(TrajectoryRecord(), p)
    assert p.read_text() == harness.CSV_HEADER + "\n"


def test_csv_byte_identical_across_runs(tmp_path):
    s = Scenario(kind="step_track", duration=1.5,
                 motion=ObjectMotion(az=15.0, el=-10.0))
    paths = []
    for name in ("a.csv", "b.csv"):
        rec, _ = run_scenario(s)
        p = tmp_path / name
        harness.write_csv(rec, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


# -- packed trajectory record ------------------------------------------------

LOST = TrajectoryRow(0.1, math.nan, math.nan, 0.5, 0.25, 1.0, -1.0, -1, -1,
                     False)


def test_record_is_a_sequence_of_rows():
    rows = [TrajectoryRow(0.0, 2.0, -3.0, 0.5, 0.25, 1.0, -1.0, 160, 120, True),
            LOST]
    rec = record_of(rows)
    # repr, because a row holding NaN is unequal even to its own copy
    assert len(rec) == 2 and repr(list(rec)) == repr(rows)
    assert rec[0] == rows[0] and repr(rec[-1]) == repr(rows[-1])
    assert type(rec[0].cx) is int and type(rec[0].found) is bool
    for bad in (2, -3):
        with pytest.raises(IndexError):
            rec[bad]
    assert not hasattr(rec, "rows") and not hasattr(rec, "__dict__")


def test_record_column_matches_rows():
    s = Scenario(kind="step_track", duration=1.0,
                 motion=CORNER_START)
    rec, _ = run_scenario(s)
    rec.append(LOST)
    for name in harness.CSV_HEADER.split(","):
        expected = np.array([float(getattr(r, name)) for r in rec])
        assert np.array_equal(rec.column(name), expected, equal_nan=True)
    assert TrajectoryRecord().column("ex").shape == (0,)


def test_record_lost_rows_compare_equal():
    a, b = record_of([LOST] * 3), record_of([LOST] * 3)
    assert repr(a) == repr(b)
    c = record_of([LOST, LOST._replace(ux=0.75), LOST])
    assert repr(a) != repr(c)


ROW_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.1, 1 / 3, math.nan,
                              math.inf])


@given(st.lists(st.tuples(ROW_VALUES, ROW_VALUES, st.integers(-1, 2),
                          st.booleans()), max_size=3),
       st.lists(st.tuples(ROW_VALUES, ROW_VALUES, st.integers(-1, 2),
                          st.booleans()), max_size=3))
def test_record_repr_equal_iff_records_equal(left, right):
    # reprs match exactly when the packed doubles do: NaN matches NaN, and
    # -0.0 differs from 0.0
    rows = [[TrajectoryRow(0.0, ex, 0.0, ux, 0.0, 0.0, 0.0, cx, 0, found)
             for ex, ux, cx, found in side] for side in (left, right)]
    a, b = (record_of(side) for side in rows)
    packed = [array("d", [v for row in side for v in row]).tobytes()
              for side in rows]
    assert (repr(a) == repr(b)) == (packed[0] == packed[1])


def test_stock_runs_build_one_verdict_table():
    segmentation._verdict_table.cache_clear()
    s = Scenario(motion=CORNER_START)
    run_scenario(s)
    run_scenario(s)
    assert segmentation._verdict_table.cache_info().misses == 1


def test_report_file(tmp_path):
    _, metrics = run_scenario(Scenario(kind="step_track", duration=1.0))
    p = tmp_path / "report.txt"
    harness.write_report(metrics, p)
    text = p.read_text()
    assert "settling_time_s:" in text
    assert "lost_frames:" in text


# -- config ------------------------------------------------------------------

def test_config_parse_and_build(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text("""
# comment line
kind = clock_motion
duration = 3.0
object_color = 230, 120, 30   # trailing comment
motion = circular
motion_radius = 10.9
motion_period = 3.82
ts = 1.5
""")
    s = cfgmod.scenario_from_config(cfgmod.parse_config(p))
    assert s.kind == "clock_motion"
    assert s.duration == 3.0
    assert s.object_color == (230, 120, 30)
    assert s.motion.kind == "circular"
    assert s.motion.radius == 10.9
    assert s.spec.ts == 1.5


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        cfgmod.scenario_from_config({"bogus": "1"})


def test_config_rejects_bad_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this is not a setting\n")
    with pytest.raises(ValueError, match="key = value"):
        cfgmod.parse_config(p)


# The 32 keys accepted before the key table was derived from Scenario, less
# `seed`, which nothing consumed.
CONFIG_KEYS = [
    "kind", "duration", "sample_time", "width", "height", "ppd_x",
    "ppd_y", "pan_k", "pan_tau", "tilt_k", "tilt_tau", "ts", "po", "motion",
    "motion_az", "motion_el", "motion_radius", "motion_period",
    "motion_phase", "object_kind", "object_size", "illumination", "mode",
    "rgb_margin", "chroma_margin", "i_min", "min_width", "u_min", "u_max",
    "background", "object_color",
]

# key -> (text, path of the Scenario field it sets, parsed value)
CONFIG_CASES = {
    "kind": ("clock_motion", ("kind",), "clock_motion"),
    "duration": ("2", ("duration",), 2.0),
    "sample_time": ("0.05", ("sample_time",), 0.05),
    "width": ("64", ("intrinsics", "width"), 64),
    "height": ("48", ("intrinsics", "height"), 48),
    "ppd_x": ("6.5", ("intrinsics", "ppd_x"), 6.5),
    "ppd_y": ("7", ("intrinsics", "ppd_y"), 7.0),
    "pan_k": ("2", ("pan_model", "k"), 2.0),
    "pan_tau": ("0.3", ("pan_model", "tau"), 0.3),
    "tilt_k": ("1.5", ("tilt_model", "k"), 1.5),
    "tilt_tau": ("0.25", ("tilt_model", "tau"), 0.25),
    "ts": ("1.2", ("spec", "ts"), 1.2),
    "po": ("8", ("spec", "po"), 8.0),
    "motion": ("circular", ("motion", "kind"), "circular"),
    "motion_az": ("5", ("motion", "az"), 5.0),
    "motion_el": ("-3", ("motion", "el"), -3.0),
    "motion_radius": ("2.5", ("motion", "radius"), 2.5),
    "motion_period": ("3.82", ("motion", "period"), 3.82),
    "motion_phase": ("90", ("motion", "phase"), 90.0),
    "object_kind": ("triangle", ("object_kind",), "triangle"),
    "object_size": ("6", ("object_size",), 6.0),
    "illumination": ("0.5", ("illumination",), 0.5),
    "mode": ("rgb", ("mode",), "rgb"),
    "rgb_margin": ("10", ("rgb_margin",), 10),
    "chroma_margin": ("0.1", ("chroma_margin",), 0.1),
    "i_min": ("12", ("i_min",), 12),
    "min_width": ("2", ("min_width",), 2),
    "u_min": ("-30", ("u_min",), -30.0),
    "u_max": ("30", ("u_max",), 30.0),
    "background": ("1, 2,3", ("background",), (1, 2, 3)),
    "object_color": ("200,50,50", ("object_color",), (200, 50, 50)),
}


def flat_fields(obj, prefix=()):
    """Every leaf field of a (nested) dataclass, keyed by its path."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(flat_fields(value, prefix + (f.name,)))
        else:
            out[prefix + (f.name,)] = value
    return out


def test_config_empty_is_default_scenario():
    assert cfgmod.scenario_from_config({}) == Scenario()


def test_config_keys_are_the_scenario_fields():
    assert sorted(cfgmod.KEYS) == sorted(CONFIG_KEYS)
    assert sorted(CONFIG_CASES) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_key_sets_exactly_its_field(key):
    text, path, expected = CONFIG_CASES[key]
    before = flat_fields(Scenario())
    after = flat_fields(cfgmod.scenario_from_config({key: text}))
    assert before[path] != expected
    assert after[path] == expected
    assert type(after[path]) is type(expected)
    assert [p for p in after if after[p] != before[p]] == [path]


@pytest.mark.parametrize("key, text", [("min_width", "abc"),
                                       ("duration", "fast"),
                                       ("background", "1,2"),
                                       ("pan_k", "-1"),
                                       ("width", "0"),
                                       ("po", "150"),
                                       ("illumination", "-1"),
                                       ("illumination", "1.5"),
                                       ("rgb_margin", "-5"),
                                       ("chroma_margin", "-0.1"),
                                       ("i_min", "0"),
                                       ("object_size", "inf"),
                                       ("object_size", "nan"),
                                       ("object_size", "-1"),
                                       ("motion_az", "inf"),
                                       ("motion_phase", "nan"),
                                       ("background", "300,0,0"),
                                       ("object_color", "0,-1,0"),
                                       ("object_kind", "star"),
                                       ("mode", "foo")])
def test_config_value_error_names_the_key(key, text):
    with pytest.raises(ValueError, match=f"^config key '{key}': "):
        cfgmod.scenario_from_config({key: text})


# Config values as typed: any text, and text that parses as a number or a
# colour, in range or not.
CONFIG_TEXT = st.one_of(
    st.text(max_size=12), st.floats().map(repr),
    st.integers(-300, 300).map(str),
    st.lists(st.integers(-300, 300).map(str), min_size=1,
             max_size=4).map(",".join))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cfgmod.KEYS)), CONFIG_TEXT)
def test_config_value_fails_only_naming_its_key(key, text):
    try:
        s = cfgmod.scenario_from_config({key: text})
    except ValueError as e:
        assert str(e).startswith(f"config key {key!r}: ")
    else:
        assert isinstance(s, Scenario)


@settings(max_examples=200, deadline=None)
@given(st.text(st.one_of(st.sampled_from(" =#\n\r\tkey"),
                         # a lone surrogate has no UTF-8 encoding to write;
                         # the bytes test below covers files that are not UTF-8
                         st.characters(exclude_categories=("Cs",))),
               max_size=60))
def test_config_file_fails_only_naming_its_line(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("cfg") / "any.cfg"
    p.write_text(text, encoding="utf-8", newline="")
    try:
        values = cfgmod.parse_config(p)
    except ValueError as e:
        lineno = re.fullmatch(rf"{re.escape(str(p))}:(\d+): expected "
                              r"'key = value'", str(e))
        assert lineno is not None
        line = list(io.StringIO(text, newline=None))[int(lineno[1]) - 1]
        assert "=" not in line.partition("#")[0]
    else:
        assert all(isinstance(v, str) for v in values.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([b" ", b"=", b"#", b"\n", b"\r",
                                           b"key", b"\xff", b"\xc3",
                                           "\u00e9".encode()]),
                          st.binary(max_size=4)), max_size=20))
def test_config_file_bytes_fail_only_naming_the_file(tmp_path_factory,
                                                     chunks):
    data = b"".join(chunks)
    p = tmp_path_factory.mktemp("cfg") / "any.cfg"
    p.write_bytes(data)
    try:
        values = cfgmod.parse_config(p)
    except ValueError as e:
        lineno = re.match(rf"{re.escape(str(p))}:(\d+): ", str(e))
        assert lineno is not None
        assert 1 <= int(lineno[1]) <= len(data.splitlines())
    else:
        assert all(isinstance(v, str) for v in values.values())


def test_config_file_not_utf8_names_file_and_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"duration = 5\n\xff\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: not "
                                         r"UTF-8 text \(byte 0xff at offset "
                                         r"0\)$"):
        cfgmod.parse_config(p)


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    text = b"kind = clock_motion\nduration = 3.0\n"
    plain, marked, twice = (tmp_path / n for n in ("plain.cfg", "bom.cfg",
                                                   "twice.cfg"))
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    s = cfgmod.scenario_from_config(cfgmod.parse_config(plain))
    assert s != Scenario()
    assert cfgmod.scenario_from_config(cfgmod.parse_config(marked)) == s
    # one mark at the very start is dropped, and no more
    twice.write_bytes(b"\xef\xbb\xbf" * 2 + text)
    with pytest.raises(ValueError,
                       match=r"^unknown config key: '\\ufeffkind'$"):
        cfgmod.scenario_from_config(cfgmod.parse_config(twice))


def test_parse_color_range():
    assert cfgmod.parse_color("0, 128,255") == (0, 128, 255)
    for text in ("256,0,0", "0,-1,0", "0,0,1000"):
        with pytest.raises(ValueError, match="0..255"):
            cfgmod.parse_color(text)
